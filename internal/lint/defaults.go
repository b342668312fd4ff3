package lint

// DefaultAnalyzers is the suite piranha-vet runs over this repository:
// the determinism, hotpath and nil-guard analyzers. Goroutine fan-out is
// confined to the experiment runner, which runs whole experiments
// concurrently, and even there goroutines may not call Schedule/After
// directly: every event engine is single-threaded.
func DefaultAnalyzers() []Analyzer {
	return []Analyzer{
		Determinism("internal/runner"),
		Hotpath(),
		NilGuard(),
	}
}
