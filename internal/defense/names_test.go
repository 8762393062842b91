package defense

import (
	"sort"
	"testing"

	"repro/internal/spectre"
)

// TestPostureCatalogue pins the named-posture wire vocabulary: these
// identifiers appear in control-API job specs and manifests, so a
// rename or a semantics drift is a breaking change, not a refactor.
func TestPostureCatalogue(t *testing.T) {
	names := PostureNames()
	if !sort.StringsAreSorted(names) {
		t.Errorf("PostureNames not sorted: %v", names)
	}
	for _, name := range names {
		if _, ok := PostureByName(name); !ok {
			t.Errorf("listed posture %q does not resolve", name)
		}
	}
	if _, ok := PostureByName("no-such-posture"); ok {
		t.Error("unknown posture resolved")
	}

	// Spot-check the semantics of the names the walkthroughs use.
	checks := []struct {
		name string
		want func(Posture) bool
	}{
		{"none", func(p Posture) bool { return p == Posture{} }},
		{"dep", func(p Posture) bool { return p.DEP && !p.Canary && !p.ASLR }},
		{"full", func(p Posture) bool { return p.DEP && p.Canary && p.ASLR }},
		{"retpoline", func(p Posture) bool { return p.Harden == spectre.HardenRetpoline }},
		{"slh", func(p Posture) bool { return p.Harden == spectre.HardenSLH }},
		{"ssbd", func(p Posture) bool { return p.SSBD }},
		{"nospec", func(p Posture) bool { return p.NoSpeculation }},
		{"index-mask", func(p Posture) bool { return p.Harden == spectre.HardenIndexMask }},
	}
	for _, c := range checks {
		p, ok := PostureByName(c.name)
		if !ok || !c.want(p) {
			t.Errorf("posture %q: resolved=%v value=%+v", c.name, ok, p)
		}
	}

	// Every posture but "none" keeps DEP on: the paper's §I concedes the
	// memory-defense baseline and varies the speculation side.
	for _, name := range names {
		p, _ := PostureByName(name)
		if name != "none" && !p.DEP {
			t.Errorf("posture %q lacks the DEP baseline", name)
		}
	}
}
