package analysis

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Detrand,
		Walltime,
		Billedquery,
		Telemetryro,
		Gobsymmetry,
	}
}

// KnownRules returns the set of rule names a //duolint:allow directive may
// name: every analyzer's name. The directive pseudo-rule is not among
// them, since directive findings cannot be suppressed.
func KnownRules() map[string]bool {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	return known
}

// Select returns the analyzers whose names appear in the comma-free list
// names; it errors (by returning nil and the offending name) on an
// unknown name.
func Select(names []string) ([]*Analyzer, string) {
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, n
		}
		out = append(out, a)
	}
	return out, ""
}
