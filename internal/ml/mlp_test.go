package ml

import (
	"math"
	"math/rand"
	"testing"
)

// refMLP is the reference the flat MLP must match bit for bit: the
// textbook nested-slice network with weights as [layer][out][in], fresh
// gradient matrices per mini-batch and fresh activation and delta vectors
// per sample. It shares MLP's hyperparameters and seeds its rng the same
// way, so any reordering of a floating-point expression in MLP shows as a
// differing score.
type refMLP struct {
	Hidden   []int
	LR       float64
	Momentum float64
	Epochs   int
	Batch    int
	Seed     int64

	weights [][][]float64 // [layer][out][in]
	biases  [][]float64   // [layer][out]
	velW    [][][]float64
	velB    [][]float64
}

func (m *refMLP) Fit(X [][]float64, y []int) error {
	if err := checkXY(X, y); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(m.Seed))
	dims := append([]int{len(X[0])}, m.Hidden...)
	dims = append(dims, 1)
	L := len(dims) - 1
	m.weights = make([][][]float64, L)
	m.biases = make([][]float64, L)
	m.velW = make([][][]float64, L)
	m.velB = make([][]float64, L)
	for l := 0; l < L; l++ {
		in, out := dims[l], dims[l+1]
		scale := math.Sqrt(2 / float64(in)) // He init for ReLU
		m.weights[l] = make([][]float64, out)
		m.velW[l] = make([][]float64, out)
		m.biases[l] = make([]float64, out)
		m.velB[l] = make([]float64, out)
		for o := 0; o < out; o++ {
			m.weights[l][o] = make([]float64, in)
			m.velW[l][o] = make([]float64, in)
			for i := 0; i < in; i++ {
				m.weights[l][o][i] = rng.NormFloat64() * scale
			}
		}
	}

	batch := m.Batch
	if batch <= 0 {
		batch = 16
	}
	idx := rng.Perm(len(X))
	acts := make([][]float64, L+1) // activations per layer
	for ep := 0; ep < m.Epochs; ep++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += batch {
			end := start + batch
			if end > len(idx) {
				end = len(idx)
			}
			// Gradient accumulators.
			gradW := make([][][]float64, L)
			gradB := make([][]float64, L)
			for l := 0; l < L; l++ {
				gradW[l] = make([][]float64, len(m.weights[l]))
				gradB[l] = make([]float64, len(m.biases[l]))
				for o := range m.weights[l] {
					gradW[l][o] = make([]float64, len(m.weights[l][o]))
				}
			}
			for _, i := range idx[start:end] {
				m.forward(X[i], acts)
				// Output delta (sigmoid + cross-entropy): p - y.
				delta := []float64{acts[L][0] - float64(y[i])}
				for l := L - 1; l >= 0; l-- {
					next := make([]float64, len(acts[l]))
					for o, d := range delta {
						gradB[l][o] += d
						for j, a := range acts[l] {
							gradW[l][o][j] += d * a
							next[j] += d * m.weights[l][o][j]
						}
					}
					if l > 0 {
						// ReLU derivative on the pre-layer activation.
						for j := range next {
							if acts[l][j] <= 0 {
								next[j] = 0
							}
						}
					}
					delta = next
				}
			}
			n := float64(end - start)
			for l := 0; l < L; l++ {
				for o := range m.weights[l] {
					for j := range m.weights[l][o] {
						m.velW[l][o][j] = m.Momentum*m.velW[l][o][j] - m.LR*gradW[l][o][j]/n
						m.weights[l][o][j] += m.velW[l][o][j]
					}
					m.velB[l][o] = m.Momentum*m.velB[l][o] - m.LR*gradB[l][o]/n
					m.biases[l][o] += m.velB[l][o]
				}
			}
		}
	}
	return nil
}

// forward fills acts[0..L] for input x; acts[L] is the sigmoid output.
func (m *refMLP) forward(x []float64, acts [][]float64) {
	L := len(m.weights)
	acts[0] = x
	for l := 0; l < L; l++ {
		out := make([]float64, len(m.weights[l]))
		for o, ws := range m.weights[l] {
			z := m.biases[l][o]
			for j, w := range ws {
				z += w * acts[l][j]
			}
			if l == L-1 {
				out[o] = sigmoid(z)
			} else if z > 0 {
				out[o] = z
			}
		}
		acts[l+1] = out
	}
}

func (m *refMLP) Score(x []float64) float64 {
	if len(m.weights) == 0 {
		return 0
	}
	acts := make([][]float64, len(m.weights)+1)
	m.forward(x, acts)
	return acts[len(m.weights)][0]
}

// assertMatchesRef fits m and its reference on the same data and
// requires identical score bits on every row and on probe.
func assertMatchesRef(t *testing.T, m *MLP, X [][]float64, y []int, probe []float64) {
	t.Helper()
	ref := &refMLP{Hidden: m.Hidden, LR: m.LR, Momentum: m.Momentum, Epochs: m.Epochs, Batch: m.Batch, Seed: m.Seed}
	if err := m.Fit(X, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if err := ref.Fit(X, y); err != nil {
		t.Fatalf("reference Fit: %v", err)
	}
	for i, x := range append(X[:len(X):len(X)], probe) {
		got, want := m.Score(x), ref.Score(x)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("row %d of %d: Score = %v (%#x), reference %v (%#x)",
				i, len(X), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// FuzzMLPMatchesReference decodes a network shape and training setup,
// fits MLP and refMLP on the same seeded data, and requires bit-identical
// scores on every training row and on one fresh vector.
func FuzzMLPMatchesReference(f *testing.F) {
	// The first two seeds have the shapes of NewMLP and NewDeepNN. Each
	// of the first three ends on a batch whose size is not a power of
	// two, so dividing by it rounds and a reassociated update shows.
	f.Add(uint8(59), uint8(3), uint64(0x17_00), uint8(15), uint8(3), int64(1), uint16(2621), uint8(233))
	f.Add(uint8(44), uint8(3), uint64(0x07_0f_17_1f_03), uint8(15), uint8(3), int64(2), uint16(1311), uint8(233))
	f.Add(uint8(63), uint8(7), uint64(0x27_27_27_27_03), uint8(4), uint8(2), int64(-7), uint16(40000), uint8(0))
	f.Add(uint8(1), uint8(1), uint64(0), uint8(0), uint8(0), int64(0), uint16(0), uint8(255))
	f.Add(uint8(7), uint8(2), uint64(0x01_27_02), uint8(9), uint8(3), int64(42), uint16(1000), uint8(50))
	f.Fuzz(func(t *testing.T, rows, dim uint8, hidden uint64, batch, epochs uint8, seed int64, lr uint16, mom uint8) {
		nRows := 1 + int(rows)%64
		nDim := 1 + int(dim)%8
		widths := make([]int, 1+int(hidden&0xff)%4)
		for k := range widths {
			widths[k] = 1 + int(hidden>>(8*(k+1))&0xff)%40
		}
		m := &MLP{
			Hidden:   widths,
			LR:       float64(lr) / 65535 * 0.5,
			Momentum: float64(mom) / 255 * 0.99,
			Epochs:   1 + int(epochs)%4,
			Batch:    1 + int(batch)%(nRows+3),
			Seed:     seed,
		}
		rng := rand.New(rand.NewSource(seed))
		X := make([][]float64, nRows)
		y := make([]int, nRows)
		for i := range X {
			y[i] = rng.Intn(2)
			X[i] = make([]float64, nDim)
			for j := range X[i] {
				X[i][j] = rng.NormFloat64() + float64(y[i])
			}
		}
		probe := make([]float64, nDim)
		for j := range probe {
			probe[j] = rng.NormFloat64() * 3
		}
		assertMatchesRef(t, m, X, y, probe)
	})
}

// TestMLPFitAllocs gates the training kernel's allocations: Fit
// allocates its state once, not per batch or sample, and Score one
// activation buffer.
func TestMLPFitAllocs(t *testing.T) {
	X, y := benchSet()
	for _, m := range []*MLP{NewMLP(1), NewDeepNN(1)} {
		if allocs := testing.AllocsPerRun(1, func() {
			if err := m.Fit(X, y); err != nil {
				t.Fatal(err)
			}
		}); allocs > 64 {
			t.Errorf("%s: Fit on %d×%d rows allocates %.0f objects, want at most 64", m.Name(), len(X), len(X[0]), allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { benchScore = m.Score(X[0]) }); allocs > 1 {
			t.Errorf("%s: Score allocates %.0f objects, want at most 1", m.Name(), allocs)
		}
	}
}

// benchSet is the fixed seeded 400×4 standardized dataset BenchmarkFit
// and BenchmarkScore train on.
func benchSet() ([][]float64, []int) {
	d := blobs(400, 4, 2, 1)
	var sc Scaler
	return sc.FitTransform(d.X), d.Y
}

func BenchmarkFit(b *testing.B) {
	X, y := benchSet()
	for _, name := range ClassifierNames() {
		b.Run(name, func(b *testing.B) {
			clf, _ := ByName(name, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := clf.Fit(X, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScore(b *testing.B) {
	X, y := benchSet()
	for _, name := range ClassifierNames() {
		b.Run(name, func(b *testing.B) {
			clf, _ := ByName(name, 1)
			if err := clf.Fit(X, y); err != nil {
				b.Fatal(err)
			}
			s := clf.(Scorer)
			b.ReportAllocs()
			b.ResetTimer()
			var sum float64
			for i := 0; i < b.N; i++ {
				sum += s.Score(X[i%len(X)])
			}
			benchScore = sum
		})
	}
}

// benchScore keeps the scored values live.
var benchScore float64
