package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// MLP is a fully-connected feed-forward network with ReLU hidden
// activations and a sigmoid output, trained by backpropagation with
// mini-batch SGD and momentum. The paper's two neural detectors map to
// two configurations: the sklearn-style "MLP" ("3-layer network-based
// classifier") and the TensorFlow-style "NN" ("6-layers using 'Relu'
// activation").
type MLP struct {
	Hidden   []int // hidden layer widths
	LR       float64
	Momentum float64
	Epochs   int
	Batch    int
	Seed     int64

	label  string
	layers []layer // the trained network; nil before Fit
}

// layer is one fully-connected layer with its weights in one row-major
// slice: w[o*in+j] weighs input j into output o.
type layer struct {
	in int
	w  []float64 // out*in
	b  []float64 // out
}

// NewMLP returns the 3-layer (input, one hidden, output) sklearn-style
// detector.
func NewMLP(seed int64) *MLP {
	return &MLP{Hidden: []int{24}, LR: 0.02, Momentum: 0.9, Epochs: 60, Batch: 16, Seed: seed, label: "mlp"}
}

// NewDeepNN returns the 6-layer TensorFlow-style detector (input, four
// hidden ReLU layers, output).
func NewDeepNN(seed int64) *MLP {
	return &MLP{Hidden: []int{32, 24, 16, 8}, LR: 0.01, Momentum: 0.9, Epochs: 80, Batch: 16, Seed: seed, label: "nn"}
}

// Name implements Classifier.
func (m *MLP) Name() string {
	if m.label == "" {
		return "mlp"
	}
	return m.label
}

// newNet allocates a zeroed network with the given layer widths as one
// buffer, each layer's weights then its biases, and returns the buffer
// with per-layer views into it. The parameters and their gradients share
// this layout, so one flat loop applies the momentum update.
func newNet(dims []int) ([]float64, []layer) {
	n := 0
	for l := 1; l < len(dims); l++ {
		n += dims[l-1]*dims[l] + dims[l]
	}
	buf := make([]float64, n)
	net := make([]layer, len(dims)-1)
	rest := buf
	for l := range net {
		in, out := dims[l], dims[l+1]
		net[l] = layer{in: in, w: rest[:out*in], b: rest[out*in : out*in+out]}
		rest = rest[out*in+out:]
	}
	return buf, net
}

// units returns the number of non-input units, the length of the
// activation buffer forward fills.
func (m *MLP) units() int {
	n := 0
	for _, ly := range m.layers {
		n += len(ly.b)
	}
	return n
}

// Fit implements Classifier. All training state (gradients, momentum
// velocities, activations and deltas) is allocated once per call and
// reused across epochs, batches and samples. Every floating-point
// expression keeps the operands and evaluation order of the textbook
// nested-slice form, so a fit is bit-for-bit reproducible against it.
func (m *MLP) Fit(X [][]float64, y []int) error {
	if err := checkXY(X, y); err != nil {
		return err
	}
	for l, h := range m.Hidden {
		if h < 1 {
			return fmt.Errorf("ml: hidden layer %d has width %d, want at least 1", l, h)
		}
	}
	rng := rand.New(rand.NewSource(m.Seed))
	dims := append(append([]int{len(X[0])}, m.Hidden...), 1)
	params, net := newNet(dims)
	m.layers = net
	for _, ly := range net {
		scale := math.Sqrt(2 / float64(ly.in)) // He init for ReLU
		for k := range ly.w {
			ly.w[k] = rng.NormFloat64() * scale
		}
	}

	grad, grads := newNet(dims)
	vel := make([]float64, len(params))
	// acts[0] is the sample, acts[l+1] layer l's output; deltas[l] is the
	// loss gradient at layer l's pre-activations. Both are views into
	// flat buffers in forward's order.
	L := len(net)
	units := m.units()
	act, delta := make([]float64, units), make([]float64, units)
	acts, deltas := make([][]float64, L+1), make([][]float64, L)
	off := 0
	for l, ly := range net {
		out := len(ly.b)
		acts[l+1], deltas[l] = act[off:off+out], delta[off:off+out]
		off += out
	}

	batch := m.Batch
	if batch <= 0 {
		batch = 16
	}
	idx := rng.Perm(len(X))
	for ep := 0; ep < m.Epochs; ep++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += batch {
			end := min(start+batch, len(idx))
			clear(grad)
			for _, i := range idx[start:end] {
				acts[0] = X[i]
				// Output delta (sigmoid + cross-entropy): p - y.
				deltas[L-1][0] = m.forward(X[i], act) - float64(y[i])
				for l := L - 1; l >= 0; l-- {
					ly, g, d, a := net[l], grads[l], deltas[l], acts[l]
					for o, dv := range d {
						g.b[o] += dv
						gw := g.w[o*ly.in : (o+1)*ly.in]
						for j, av := range a {
							gw[j] += dv * av
						}
					}
					if l == 0 {
						break // nothing reads the input layer's delta
					}
					next := deltas[l-1]
					clear(next)
					for o, dv := range d {
						for j, w := range ly.w[o*ly.in : (o+1)*ly.in] {
							next[j] += dv * w
						}
					}
					// ReLU derivative on the pre-layer activation.
					for j, av := range a {
						if av <= 0 {
							next[j] = 0
						}
					}
				}
			}
			n := float64(end - start)
			for k := range params {
				vel[k] = m.Momentum*vel[k] - m.LR*grad[k]/n
				params[k] += vel[k]
			}
		}
	}
	return nil
}

// forward runs x through the network, writing each layer's outputs in
// turn into act (at least units() long), and returns the sigmoid output.
func (m *MLP) forward(x, act []float64) float64 {
	in := x
	last := len(m.layers) - 1
	for l, ly := range m.layers {
		out := act[:len(ly.b)]
		act = act[len(ly.b):]
		for o := range out {
			z := ly.b[o]
			for j, w := range ly.w[o*ly.in : (o+1)*ly.in] {
				z += w * in[j]
			}
			switch {
			case l == last:
				out[o] = sigmoid(z)
			case z > 0:
				out[o] = z
			default:
				out[o] = 0
			}
		}
		in = out
	}
	return in[0]
}

// Score implements Scorer: the sigmoid output (attack probability).
func (m *MLP) Score(x []float64) float64 {
	if len(m.layers) == 0 {
		return 0
	}
	return m.forward(x, make([]float64, m.units()))
}

// Predict implements Classifier.
func (m *MLP) Predict(x []float64) int {
	if m.Score(x) >= 0.5 {
		return 1
	}
	return 0
}

// ByName constructs one of the paper's four classifier families:
// "mlp", "nn", "lr", "svm".
func ByName(name string, seed int64) (Classifier, bool) {
	switch name {
	case "mlp":
		return NewMLP(seed), true
	case "nn":
		return NewDeepNN(seed), true
	case "lr":
		return NewLogReg(seed), true
	case "svm":
		return NewSVM(seed), true
	}
	return nil, false
}

// ClassifierNames lists the supported families in the paper's order.
func ClassifierNames() []string { return []string{"mlp", "nn", "lr", "svm"} }
