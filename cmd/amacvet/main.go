// Command amacvet is the project's static-analysis gate: a multichecker
// running the internal/lint suite (mapiter, wallclock, hotalloc, payloadbox)
// over the package patterns given on the command line. It
// exits 0 on a clean tree, 1 when any diagnostic survives suppression, and
// 2 on a load or internal failure — the same contract as go vet, so CI can
// treat it identically.
//
// Usage:
//
//	go tool amacvet [-run name[,name...]] [-json] [-list] [packages]
//
// With no packages, ./... is analyzed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"amac/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("amacvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only    = fs.String("run", "", "comma-separated analyzer names to run (default: all)")
		asJSON  = fs.Bool("json", false, "emit diagnostics as a JSON array")
		list    = fs.Bool("list", false, "list analyzers and exit")
		workdir = fs.String("C", ".", "directory to resolve package patterns in")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers := lint.Analyzers
	if *only != "" {
		byName := make(map[string]*lint.Analyzer)
		for _, a := range lint.Analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a := byName[strings.TrimSpace(name)]
			if a == nil {
				fmt.Fprintf(stderr, "amacvet: unknown analyzer %q (have %s)\n", name, strings.Join(lint.AnalyzerNames(), ", "))
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}
	patterns := fs.Args()
	res, err := lint.Load(*workdir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "amacvet: %v\n", err)
		return 2
	}
	diags, err := lint.RunAnalyzers(res.Roots, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "amacvet: %v\n", err)
		return 2
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		type jsonDiag struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		out := make([]jsonDiag, len(diags))
		for i, d := range diags {
			out[i] = jsonDiag{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message}
		}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "amacvet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
