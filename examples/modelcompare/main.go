// Modelcompare: run the complete seven-query benchmark of the paper's §2.2
// across all five storage models and print a Table-4-style comparison —
// the headline experiment of the reproduction, at a reduced scale that
// runs in well under a second.
package main

import (
	"fmt"
	"log"

	"complexobj"
	"complexobj/cobench"
	"complexobj/report"
)

func main() {
	gen := cobench.DefaultConfig().WithN(500)
	w := cobench.Workload{Loops: 100, Samples: 20, Seed: 42}

	pages := &report.Table{
		Title:  "physical page I/Os per object (1a-1c) / per loop (2a-3b)",
		Header: []string{"MODEL", "1a", "1b", "1c", "2a", "2b", "3a", "3b"},
	}
	writes := &report.Table{
		Title:  "page writes per loop (update queries)",
		Header: []string{"MODEL", "3a", "3b"},
	}
	for _, kind := range complexobj.AllModels() {
		db, err := complexobj.OpenLoaded(kind, complexobj.Options{BufferPages: 400}, gen)
		if err != nil {
			log.Fatal(err)
		}
		results, err := db.RunBenchmark(w)
		if err != nil {
			log.Fatal(err)
		}
		db.Close()
		row := []string{kind.String()}
		wrow := []string{kind.String()}
		for _, r := range results {
			if !r.Supported {
				row = append(row, "-")
				continue
			}
			row = append(row, report.Num(r.Pages))
			if r.Query == cobench.Q3a || r.Query == cobench.Q3b {
				wrow = append(wrow, report.Num(r.PagesWritten))
			}
		}
		pages.AddRow(row...)
		writes.AddRow(wrow...)
	}
	fmt.Println(pages.Text())
	fmt.Println(writes.Text())
	fmt.Println("reading guide (paper §6): DASDBS-NSM wins navigation; pure NSM loses value")
	fmt.Println("queries (full scans); DASDBS-DSM beats DSM on reads but pays a write-through")
	fmt.Println("page pool per updated tuple on query 3.")
}
