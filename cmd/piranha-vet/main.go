// Command piranha-vet runs the repository's static-analysis suite
// (internal/lint): determinism, hot-path allocation and nil-receiver
// guards. See DESIGN.md §8
// for the checked invariants and the annotation grammar.
//
// Usage:
//
//	piranha-vet ./...                  # whole module (the CI gate)
//	piranha-vet -json ./...            # findings as a JSON array
//	piranha-vet ./internal/... figures.go piranha.go
//
// Patterns select which files' findings are reported (the whole module
// is always loaded and type-checked): `./...` matches everything,
// `./dir/...` a subtree, `./dir` one directory, and a `*.go` path one
// file. Exit status is 0 when clean, 1 when findings remain, 2 on a
// load or usage error.
//
// With -json the findings are emitted as a JSON array on stdout (empty
// array when clean) in the same shape piranha-mc -json uses, so one
// consumer handles both tools.
package main

import (
	"flag"
	"fmt"
	"os"
	"path"
	"strings"

	"piranha/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := lint.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "piranha-vet:", err)
		os.Exit(2)
	}
	mod, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "piranha-vet:", err)
		os.Exit(2)
	}

	diags := lint.Run(mod, lint.DefaultAnalyzers())
	var kept []lint.Diagnostic
	for _, d := range diags {
		if matchAny(patterns, d.File) {
			kept = append(kept, d)
		}
	}
	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, kept); err != nil {
			fmt.Fprintln(os.Stderr, "piranha-vet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range kept {
			fmt.Println(d)
		}
	}
	if len(kept) > 0 {
		fmt.Fprintf(os.Stderr, "piranha-vet: %d finding(s)\n", len(kept))
		os.Exit(1)
	}
}

// matchAny reports whether the module-relative file matches one of the
// command-line patterns.
func matchAny(patterns []string, file string) bool {
	for _, p := range patterns {
		if matchPattern(p, file) {
			return true
		}
	}
	return false
}

func matchPattern(pat, file string) bool {
	pat = strings.TrimPrefix(pat, "./")
	switch {
	case pat == "..." || pat == ".":
		return true
	case strings.HasSuffix(pat, "/..."):
		return strings.HasPrefix(file, strings.TrimSuffix(pat, "...")) // keeps the "/"
	case strings.HasSuffix(pat, ".go"):
		return file == pat
	default:
		return path.Dir(file) == strings.TrimSuffix(pat, "/")
	}
}
