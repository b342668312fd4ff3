package pe_test

import (
	"sort"
	"testing"

	"piranha/internal/core"
	"piranha/internal/noc"
	"piranha/internal/pe"
)

// neverFired lists the protocol rules the timing model never fires on
// the coverage workloads, each with the reason. Every other rule of the
// model-checked table must fire at least once, and reaching a declared
// hole panics, so the test also proves the runs reach none.
var neverFired = map[string]string{
	"write-hit":                    "a store to an exclusively held line never leaves the chip",
	"evict-shared":                 "the L2 drops a shared copy silently",
	"evict-exclusive-home":         "the home chip writes its own lines back to local memory",
	"h-read-uncached":              "a home-local miss no remote node owns is the L2's own memory read",
	"h-read-shared":                "a home-local miss no remote node owns is the L2's own memory read",
	"h-read-shared-coarse":         "a home-local miss no remote node owns is the L2's own memory read",
	"h-write-uncached":             "a home-local store with no remote copies is the L2's own memory read",
	"h-wh64-uncached":              "a home-local store with no remote copies is the L2's own memory read",
	"h-upgrade-uncached":           "the chip believes remote copies exist only while the directory records them",
	"h-wh64-shared":                "the workloads' write-hint stores hit lines no other node holds",
	"h-wh64-shared-coarse":         "the workloads' write-hint stores hit lines no other node holds",
	"h-wh64-owned":                 "the workloads' write-hint stores hit lines no other node holds",
	"q-wh64-shared":                "the workloads' write-hint stores hit lines no other node holds",
	"q-wh64-shared-coarse":         "the workloads' write-hint stores hit lines no other node holds",
	"q-wh64-owned":                 "the workloads' write-hint stores hit lines no other node holds",
	"f-serve-wh64":                 "the workloads' write-hint stores hit lines no other node holds",
	"h-upgrade-owned":              "an upgrading chip holds a shared copy, so no other node owns the line",
	"q-upgrade-owned":              "an upgrading chip holds a shared copy, so no other node owns the line",
	"f-serve-upgrade":              "an upgrading chip holds a shared copy, so no other node owns the line",
	"q-upgrade-racer":              "transactions are atomic: an upgrader's copy cannot vanish in flight",
	"q-upgrade-miss-shared":        "transactions are atomic: an upgrader's copy cannot vanish in flight",
	"q-upgrade-miss-shared-coarse": "transactions are atomic: an upgrader's copy cannot vanish in flight",
	"f-early-invalid":              "transactions are atomic: no fill is in flight when a forward lands",
	"f-early-shared":               "transactions are atomic: no fill is in flight when a forward lands",
	"i-racing-fill":                "transactions are atomic: no fill is in flight when an invalidation lands",
	"i-exclusive":                  "a node the directory lists as a sharer never holds the line exclusively",
	"w-stale-owned":                "transactions are atomic: a writeback never races a forward",
	"w-stale-uncached":             "transactions are atomic: a writeback never races a forward",
	"w-stale-shared":               "transactions are atomic: a writeback never races a forward",
	"w-stale-shared-coarse":        "transactions are atomic: a writeback never races a forward",
	"ws-own-fill-shared-coarse":    "a read forward leaves two sharers, which the pointer format holds",
	"ws-share-shared-coarse":       "a read forward leaves two sharers, which the pointer format holds",
}

// TestProtocolRuleCoverage runs an 8-node torus OLTP workload and the
// §2.5.3 contention study under both protocols, and checks the rules
// that fire against neverFired.
func TestProtocolRuleCoverage(t *testing.T) {
	fires := map[string]uint64{}
	add := func(f *pe.Fabric) {
		for name, n := range f.RuleFires() {
			fires[name] += n
		}
	}
	_, sys := core.RunSystem(core.Experiment{
		Sys:  core.SystemConfig{Chips: 8, Chip: core.PiranhaChip(1), Topology: noc.Torus{W: 2, H: 4}},
		Work: core.WorkloadSpec{Kind: core.OLTP}, WarmTx: 50, MeasureTx: 200, Seed: 1,
	})
	add(sys.Fabric)
	add(pe.Contention(false, 4, 2000))
	add(pe.Contention(true, 4, 2000))

	var names []string
	for name := range fires {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		_, listed := neverFired[name]
		switch {
		case fires[name] == 0 && !listed:
			t.Errorf("rule %s never fired; list it in neverFired with the reason", name)
		case fires[name] > 0 && listed:
			t.Errorf("rule %s fired %d times but is listed as never firing", name, fires[name])
		}
	}
	for name := range neverFired {
		if _, ok := fires[name]; !ok {
			t.Errorf("neverFired names %s, which is not a rule of the table", name)
		}
	}
}
