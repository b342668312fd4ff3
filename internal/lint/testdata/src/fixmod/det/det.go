// Package det seeds determinism-analyzer violations for the fixture
// golden test. Comments marked "finding" are expected in the golden
// file; functions marked clean must produce nothing.
package det

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Engine mimics the simulator's scheduling API surface.
type Engine struct{}

// Schedule mimics sim.Engine.Schedule.
func (e *Engine) Schedule(at int64, do func()) {}

// Wallclock reads the host clock twice: two findings.
func Wallclock() time.Duration {
	start := time.Now()
	return time.Since(start)
}

// Roll mixes a seeded generator (clean) with the global one (finding).
func Roll() int {
	r := rand.New(rand.NewSource(1))
	return r.Intn(6) + rand.Intn(6)
}

// PrintAll emits output while ranging over a map: finding.
func PrintAll(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v)
	}
}

// ScheduleAll schedules events while ranging over a map: finding.
func ScheduleAll(e *Engine, m map[string]int64) {
	for _, at := range m {
		e.Schedule(at, nil)
	}
}

// Collect appends to an outer slice with no sorted pass: finding.
func Collect(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// SortedCollect is the canonical collect-then-sort idiom: clean.
func SortedCollect(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Mutate only rewrites the map itself, order-independently: clean.
func Mutate(m map[string]int) {
	for k, v := range m {
		m[k] = v + 1
	}
}

// Fork launches a goroutine outside the fan-out allowlist: finding.
func Fork(done chan struct{}) {
	go func() { close(done) }()
}

// ForkSchedule schedules from inside a launched goroutine — onto an
// engine another goroutine owns: two findings (the goroutine itself plus
// the scheduling call), and the direct-call form is one more pair.
func ForkSchedule(e *Engine, at int64) {
	go func() {
		e.Schedule(at, nil)
	}()
	go e.Schedule(at, nil)
}

// Suppressed demonstrates //piranha:allow: no finding may survive.
func Suppressed() time.Time {
	//piranha:allow determinism fixture demonstrates suppression
	return time.Now()
}

// Malformed carries a reason-less allow: the directive is reported and
// suppresses nothing, so the time.Now finding survives too.
func Malformed() time.Time {
	//piranha:allow determinism
	return time.Now()
}
