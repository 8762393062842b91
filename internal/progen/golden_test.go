package progen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sync"
	"testing"
)

// goldenOptions are the option sets TestGenerateGolden digests: the
// difftest defaults, a program with no functions that never modifies
// itself, and a long main over a one-page data region.
var goldenOptions = []Options{
	DefaultOptions(),
	{Funcs: -1, SMCProb: -1},
	{Blocks: 64, DataPages: 1},
}

// Golden digests: SHA-256 over Generate's output for seeds 0-511 at each
// goldenOptions entry, and over GenerateGadget's output and meta for
// every kind at seeds 0-15.
var (
	goldenGenerate = []string{
		"e06bf804577c0d1285593bf47e4283530fee16cc66e718995c2fa59c8cb1ba7f",
		"84507ebc87147f03c7ddce74ccd31242e8c66f64382eab7006d2584b5cdc9fb9",
		"49c572e59741e343c14af5199f05ef56933a089a61767b7be6e15878b1e0110b",
	}
	goldenGadget = "184241a6bc5287f3ae44d49912ba0fa3951639ade0aba86b2c6ada862af46ea7"
)

const (
	goldenSeeds       = 512
	goldenGadgetSeeds = 16
)

func hashProgram(h hash.Hash, p Program) {
	fmt.Fprintf(h, "%d %t %d %d|", p.NumInstr, p.CodeRWX, len(p.Code), len(p.Data))
	h.Write(p.Code)
	h.Write(p.Data)
}

// goldenDigests generates every golden program, interleaving the option
// sets and starting from the one at index first, and returns the
// Generate digests in goldenOptions order and the GenerateGadget digest.
func goldenDigests(first int) ([]string, string) {
	hs := make([]hash.Hash, len(goldenOptions))
	for i := range hs {
		hs[i] = sha256.New()
	}
	gh := sha256.New()
	for seed := int64(0); seed < goldenSeeds; seed++ {
		for k := range goldenOptions {
			i := (first + k) % len(goldenOptions)
			hashProgram(hs[i], Generate(seed, goldenOptions[i]))
		}
		if seed < goldenGadgetSeeds {
			for _, kind := range GadgetKinds() {
				p, meta := GenerateGadget(seed, kind)
				hashProgram(gh, p)
				fmt.Fprintf(gh, "%+v|", meta)
			}
		}
	}
	out := make([]string, len(hs))
	for i, h := range hs {
		out[i] = hex.EncodeToString(h.Sum(nil))
	}
	return out, hex.EncodeToString(gh.Sum(nil))
}

// TestGenerateGolden pins the generator's output: difftest shards, the
// speclint agreement soak and bench's pins all regenerate programs from
// seeds, so a program must not change with how it is generated. Four
// goroutines generate at once, each interleaving the option sets in its
// own order, so scratch that leaks from one pooled generation into the
// next changes a digest.
func TestGenerateGolden(t *testing.T) {
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gen, gadget := goldenDigests(g)
			for i, want := range goldenGenerate {
				if gen[i] != want {
					t.Errorf("goroutine %d: Generate digest at %+v = %s, want %s", g, goldenOptions[i], gen[i], want)
				}
			}
			if gadget != goldenGadget {
				t.Errorf("goroutine %d: GenerateGadget digest = %s, want %s", g, gadget, goldenGadget)
			}
		}(g)
	}
	wg.Wait()
}
