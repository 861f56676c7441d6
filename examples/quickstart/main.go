// Quickstart: open a database under the direct storage model, load a small
// benchmark extension, fetch and navigate objects, update a root record,
// and inspect the I/O statistics the library counts.
package main

import (
	"fmt"
	"log"

	"complexobj"
	"complexobj/cobench"
)

func main() {
	// A small railway database: 100 stations, the paper's distribution
	// parameters, deterministic seed.
	gen := cobench.DefaultConfig().WithN(100)
	db, err := complexobj.OpenLoaded(complexobj.DSM, complexobj.Options{BufferPages: 256}, gen)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	fmt.Printf("loaded %d stations under %s\n\n", db.NumObjects(), db.Kind())

	// Fetch one complex object by its address (the paper's query 1a).
	station, err := db.FetchByAddress(7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("station %d: %q with %d platforms, %d sightseeings\n",
		station.Key, station.Name, station.NoPlatform, station.NoSeeing)

	// Navigate its connections (query 2's inner step): only the needed
	// attributes are read.
	root, children, err := db.Navigate(7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("navigating %q -> %d children\n", root.Name, len(children))
	for _, child := range children {
		r, err := db.ReadRoot(int(child))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  connects to %q\n", r.Name)
	}

	// Update a root record (query 3 style) and persist it.
	err = db.UpdateRoots([]int32{7}, func(_ int32, r *cobench.RootRecord) {
		r.Name = "Renamed Centraal"
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		log.Fatal(err)
	}

	// The statistics are the paper's currency: pages, I/O calls, fixes.
	s := db.Stats()
	fmt.Printf("\nI/O so far: %d pages read, %d written, %d calls, %d buffer fixes (%d hits)\n",
		s.PagesRead, s.PagesWritten, s.Calls(), s.BufferFixes, s.BufferHits)

	// Run a full benchmark query with proper normalization.
	res, err := db.Run(cobench.Q2b, cobench.Workload{Loops: 20, Samples: 10, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query 2b: %.2f pages per navigation loop\n", res.Pages)
}
