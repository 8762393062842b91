package defense

import "sort"

// namedPostures is the daemon-facing posture catalogue: every defensive
// configuration a control-API job can name. The set spans the matrix's
// axes — memory defenses, the §IV countermeasures, and the software
// mitigation postures — under short, stable identifiers (they appear in
// job specs, artifact manifests and client scripts, so renaming one is
// a wire-format change). The matrix's mitigation columns join it under
// their column names; its "none" column is "dep" here.
var namedPostures = func() map[string]Posture {
	named := map[string]Posture{
		"none":       {},
		"dep":        {DEP: true},
		"dep-canary": {DEP: true, Canary: true},
		"dep-aslr":   {DEP: true, ASLR: true},
		"full":       {DEP: true, Canary: true, ASLR: true},
		"csfencing":  {DEP: true, CSFencing: true},
		"privflush":  {DEP: true, PrivilegedFlush: true},
		"nospec":     {DEP: true, NoSpeculation: true},
	}
	for _, m := range Mitigations()[MitigationIndexMask:] {
		named[m.String()] = m.Posture()
	}
	return named
}()

// PostureByName resolves a named defensive configuration.
func PostureByName(name string) (Posture, bool) {
	p, ok := namedPostures[name]
	return p, ok
}

// PostureNames lists the catalogue, sorted, for error messages and
// discovery endpoints.
func PostureNames() []string {
	out := make([]string, 0, len(namedPostures))
	for name := range namedPostures {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
