// Command blobseer-vet runs the repository's invariant analyzers: the
// declared lock orders, codec fuzz reachability, context flow and
// goroutine lifecycles. See README.md "Static analysis".
//
// Usage:
//
//	blobseer-vet ./...              # standalone, from the module root
//	blobseer-vet -list              # print the analyzers and what they check
//
// Exit status is 0 when clean, 1 when findings remain unsuppressed, 2
// on tool failure. Suppressions (//blobseer:ignore) are counted and
// printed so waivers stay visible.
package main

import (
	"flag"
	"fmt"
	"os"

	"blobseer/internal/analysis"
	"blobseer/internal/analysis/suite"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range suite.Analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	res := analysis.Run(suite.Analyzers, pkgs)
	res.Print(os.Stdout)
	switch {
	case len(res.Errors) > 0:
		os.Exit(2)
	case res.Unsuppressed() > 0:
		os.Exit(1)
	}
}
