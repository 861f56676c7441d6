// Caching: reproduce the paper's Figure 6 story interactively — sweep the
// database size past the buffer capacity and watch the direct storage
// models fall off the analytical best case toward the worst case while
// DASDBS-NSM stays flat.
package main

import (
	"fmt"
	"log"
	"strings"

	"complexobj"
	"complexobj/cobench"
	"complexobj/costmodel"
)

func main() {
	const bufferPages = 300 // deliberately small so the overflow shows early
	sizes := []int{50, 100, 200, 400, 800}

	fmt.Printf("query 2b pages/loop with a %d-page cache (loops = N/5):\n\n", bufferPages)
	fmt.Printf("%6s", "N")
	models := []complexobj.ModelKind{complexobj.DSM, complexobj.DASDBSDSM, complexobj.DASDBSNSM}
	for _, m := range models {
		fmt.Printf(" %12s", m)
	}
	fmt.Println()

	results := map[complexobj.ModelKind][]float64{}
	for _, n := range sizes {
		fmt.Printf("%6d", n)
		for _, kind := range models {
			gen := cobench.DefaultConfig().WithN(n)
			db, err := complexobj.OpenLoaded(kind, complexobj.Options{BufferPages: bufferPages}, gen)
			if err != nil {
				log.Fatal(err)
			}
			res, err := db.Run(cobench.Q2b, cobench.Workload{Loops: cobench.LoopsFor(n), Seed: 7})
			if err != nil {
				log.Fatal(err)
			}
			db.Close()
			results[kind] = append(results[kind], res.Pages)
			fmt.Printf(" %12.2f", res.Pages)
		}
		fmt.Println()
	}

	// Analytical context: best and worst case at the largest size.
	p := costmodel.PaperParams()
	fmt.Println("\nanalytical anchors at N=1500 (paper layout constants):")
	for _, m := range []costmodel.Model{costmodel.DSM, costmodel.DASDBSDSM, costmodel.DASDBSNSM} {
		est := costmodel.Estimate(m, p, costmodel.PaperWorkload())
		fmt.Printf("  %-12s best case %6.2f   worst case %6.2f pages/loop\n", m, est.Q2b, est.Q2a)
	}

	// A crude trend chart for the most cache-sensitive model.
	fmt.Println("\nDSM degradation as the database outgrows the cache:")
	max := 0.0
	for _, v := range results[complexobj.DSM] {
		if v > max {
			max = v
		}
	}
	for i, n := range sizes {
		v := results[complexobj.DSM][i]
		bar := strings.Repeat("#", int(v/max*40))
		fmt.Printf("%6d | %-40s %.1f\n", n, bar, v)
	}
}
