package pe

// Contention exposes ContentionStudy's fabric to the external tests.
var Contention = contention

// RuleFires reports how often each protocol rule fired on this fabric,
// keyed by rule name (rules that never fired map to zero).
func (f *Fabric) RuleFires() map[string]uint64 {
	out := make(map[string]uint64, len(f.fires))
	for i, r := range piranhaRules.table.Rules {
		out[r.Name] = f.fires[i]
	}
	return out
}
