// Railway: a realistic information-system scenario on top of the public
// API — route search over the connection graph ("which stations can I
// reach within two changes?") — and a comparison of what that workload
// costs under each storage model.
//
// This is the workload class the paper's introduction motivates: CAD,
// GIS and similar systems navigate object references and need "efficient
// retrieval and manipulation of the complex objects as a whole and of
// parts thereof".
package main

import (
	"fmt"
	"log"

	"complexobj"
	"complexobj/cobench"
)

func main() {
	gen := cobench.DefaultConfig().WithN(400)

	// Build the same railway network under every storage model.
	fmt.Println("reachability within 2 changes, measured under each storage model:")
	fmt.Printf("%-12s %8s %10s %10s %10s\n", "MODEL", "reached", "pagesRead", "I/O calls", "fixes")
	for _, kind := range complexobj.AllModels() {
		db, err := complexobj.OpenLoaded(kind, complexobj.Options{BufferPages: 512}, gen)
		if err != nil {
			log.Fatal(err)
		}
		reached, err := reachable(db, 0, 2)
		if err != nil {
			log.Fatal(err)
		}
		s := db.Stats()
		fmt.Printf("%-12s %8d %10d %10d %10d\n",
			kind, len(reached), s.PagesRead, s.Calls(), s.BufferFixes)
		db.Close()
	}

	// Show an actual route expansion on the winner.
	db, err := complexobj.OpenLoaded(complexobj.DASDBSNSM, complexobj.Options{}, gen)
	if err != nil {
		log.Fatal(err)
	}
	root, children, err := db.Navigate(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndepartures from %q:\n", root.Name)
	for _, c := range children {
		r, err := db.ReadRoot(int(c))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  -> %s\n", r.Name)
	}
}

// reachable runs a breadth-first expansion over the connection graph up to
// the given depth, using only the navigation API (root records + child
// references; sightseeing payloads are never needed — exactly the access
// pattern where the storage models differ).
func reachable(db *complexobj.DB, start, depth int) (map[int32]bool, error) {
	seen := map[int32]bool{int32(start): true}
	frontier := []int32{int32(start)}
	for d := 0; d < depth; d++ {
		var next []int32
		for _, idx := range frontier {
			_, children, err := db.Navigate(int(idx))
			if err != nil {
				return nil, err
			}
			for _, c := range children {
				if !seen[c] {
					seen[c] = true
					next = append(next, c)
				}
			}
		}
		frontier = next
	}
	return seen, nil
}
