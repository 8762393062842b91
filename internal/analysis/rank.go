package analysis

import "sort"

// Teapot-style exploitability ranking. Every finding gets an integer
// score from four additive axes, highest first:
//
//   - verdict: dynamically confirmed leaks dominate static leaks, which
//     dominate mitigated sites; no-transmit contributes nothing.
//   - attacker control of the index: an A-tainted access address means
//     the attacker chooses *which* memory the transient load reads —
//     the difference between an arbitrary-read gadget and a candidate
//     that merely touches some uninitialized byte.
//   - transmission primitive: a v2 injection surface (arbitrary
//     reachable code runs speculatively) outranks a v4 store bypass,
//     which outranks the plain v1 bounds-check chain.
//   - locality: a short guard-to-transmit span fits comfortably inside
//     real speculation windows, and a shallow CFG depth from an entry
//     point is easier to steer execution into.
//
// The weights are chosen so the verdict and attacker-control axes
// dominate the locality bonuses: a static leak with an attacker-steered
// index (400+200+kind >= 700) always outranks any finding the
// uninit-secret sweep produces in an unlabeled host image (at most
// 400+150+span+depth < 700), which is exactly the separation the CI
// scan gate asserts for the planted corpus.
const (
	scoreConfirmed  = 700
	scoreLeak       = 400
	scoreMitigated  = 100
	scoreAttackerIx = 200
	scoreKindV1     = 100
	scoreKindV2     = 150
	scoreKindV4     = 120
	spanBonusCap    = 64 // one modelled speculation window
	depthBonusCap   = 32
)

// RankedFinding is one finding placed in a whole-corpus report: the
// image it came from, its exploitability score, and the locality inputs
// (Span, Depth) the score was derived from, kept explicit so Validate
// can recompute the score and fuzzers can't smuggle inconsistent ranks
// through the decoder.
type RankedFinding struct {
	Image string `json:"image"`
	Finding
	// Score is ScoreFinding(Finding, Span, Depth) — recomputed, never
	// trusted, on decode.
	Score int `json:"score"`
	// Span is the witness-path length in edges (0 when no witness).
	Span int `json:"span,omitempty"`
	// Depth is the block depth of the access site from the nearest
	// root, or -1 when unreachable over direct edges.
	Depth int `json:"depth"`
	// Repro is the concrete witness input attached by the SpecFuzz
	// confirmation pass; present iff Verdict is confirmed.
	Repro *ConfirmWitness `json:"repro,omitempty"`
}

// ScoreFinding computes the exploitability score for a finding with the
// given witness span and CFG depth. Pure: the findings report's
// Validate recomputes it to reject tampered ranks.
func ScoreFinding(f Finding, span, depth int) int {
	s := 0
	switch f.Verdict {
	case VerdictConfirmed:
		s += scoreConfirmed
	case VerdictLeak:
		s += scoreLeak
	case VerdictMitigated:
		s += scoreMitigated
	}
	if f.AttackerIndex {
		s += scoreAttackerIx
	}
	switch f.Kind {
	case FindingKindV2:
		s += scoreKindV2
	case FindingKindV4:
		s += scoreKindV4
	default:
		s += scoreKindV1
	}
	if span > 0 && span < spanBonusCap {
		s += spanBonusCap - span
	}
	if depth >= 0 && depth < depthBonusCap {
		s += depthBonusCap - depth
	}
	return s
}

// witnessSpan is the canonical Span for a finding: witness-path edges.
func witnessSpan(f Finding) int {
	if n := len(f.Witness); n > 1 {
		return n - 1
	}
	return 0
}

// RankFindings scores every finding of one image report, attaching the
// image name, witness span, and access-site block depth. The input
// order (canonical per findings()) is preserved; the report layer does
// the global score sort after merging images.
func RankFindings(image string, rep *Report) []RankedFinding {
	var roots []uint64
	if rep.CFG != nil {
		roots = rep.CFG.Roots
	}
	return rankFindings(image, rep.Findings, rep.CFG, roots, new(walk))
}

// rankFindings is RankFindings over findings fs of the pass over g
// (nil: no depths) from roots, with w as working memory.
func rankFindings(image string, fs []Finding, g *CFG, roots []uint64, w *walk) []RankedFinding {
	var depths []int32
	if g != nil {
		depths = g.blockDepths(roots, w)
	}
	out := make([]RankedFinding, 0, len(fs))
	for _, f := range fs {
		depth := -1
		if g != nil {
			if k, ok := g.blockIndex(f.AccessPC); ok {
				depth = int(depths[k])
			}
		}
		span := witnessSpan(f)
		out = append(out, RankedFinding{
			Image:   image,
			Finding: f,
			Score:   ScoreFinding(f, span, depth),
			Span:    span,
			Depth:   depth,
		})
	}
	return out
}

// rankLess is the canonical report order: score descending, then
// (image, access PC, kind, guard PC, transmit PC) ascending — total, so
// reports are byte-identical at any worker count.
func rankLess(a, b RankedFinding) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Image != b.Image {
		return a.Image < b.Image
	}
	if a.AccessPC != b.AccessPC {
		return a.AccessPC < b.AccessPC
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.GuardPC != b.GuardPC {
		return a.GuardPC < b.GuardPC
	}
	return a.TransmitPC < b.TransmitPC
}

// SortRanked orders findings canonically (see rankLess).
func SortRanked(fs []RankedFinding) {
	sort.SliceStable(fs, func(i, j int) bool { return rankLess(fs[i], fs[j]) })
}

// DedupeRanked collapses findings sharing the witness identity
// (image, access PC, kind), keeping the best representative: highest
// score, then smallest depth, then lowest (guard, transmit) PCs. Input
// may be in any order; output is canonically sorted. Per-root shards of
// the same image rediscover the same site — this is where they merge.
func DedupeRanked(fs []RankedFinding) []RankedFinding {
	type ident struct {
		image  string
		access uint64
		kind   string
	}
	best := map[ident]RankedFinding{}
	for _, f := range fs {
		id := ident{f.Image, f.AccessPC, f.Kind}
		cur, ok := best[id]
		if !ok {
			best[id] = f
			continue
		}
		if betterRanked(f, cur) {
			best[id] = f
		}
	}
	out := make([]RankedFinding, 0, len(best))
	for _, f := range best {
		out = append(out, f)
	}
	SortRanked(out)
	return out
}

// betterRanked picks the representative of two findings with the same
// dedupe identity: higher score, then smaller non-negative depth, then
// lower guard then transmit PC — a total order, so merging is
// insensitive to shard arrival order.
func betterRanked(a, b RankedFinding) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	ad, bd := a.Depth, b.Depth
	if ad < 0 {
		ad = int(^uint(0) >> 1)
	}
	if bd < 0 {
		bd = int(^uint(0) >> 1)
	}
	if ad != bd {
		return ad < bd
	}
	if a.GuardPC != b.GuardPC {
		return a.GuardPC < b.GuardPC
	}
	return a.TransmitPC < b.TransmitPC
}
