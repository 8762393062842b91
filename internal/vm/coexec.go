package vm

import (
	"fmt"

	"repro/internal/cpu"
)

// CoExec time-multiplexes two machines whose cores share one cache
// hierarchy — a concrete noisy-neighbour model (the paper's "in a
// real-world situation, the system executes multiple applications").
// Each machine keeps its own memory, registers and branch predictors;
// only the caches are shared, so the neighbour's working set genuinely
// displaces the primary's lines (and vice versa).
type CoExec struct {
	// Primary is the machine of interest (profiled, measured).
	Primary *Machine
	// Neighbour runs alongside and is restarted when it finishes, so
	// pressure persists for the primary's whole run.
	Neighbour *Machine
	// Quantum is the context-switch granularity in instructions.
	Quantum uint64

	neighbourName string
	neighbourArg  []byte
}

// NewCoExec wires the two machines to share the primary's cache
// hierarchy and returns the scheduler. Call after both machines'
// binaries are registered but before Start. The shared hierarchy is
// indexed by machine address, so register the two machines' binaries at
// disjoint bases (distinct "physical" ranges); overlapping bases would
// alias their lines. Neither machine may go back to the machine pool
// (Put): resetting either would reset the hierarchy the other runs on.
func NewCoExec(primary, neighbour *Machine, quantum uint64) *CoExec {
	if quantum == 0 {
		quantum = 2000
	}
	neighbour.CPU.Caches = primary.CPU.Caches
	return &CoExec{Primary: primary, Neighbour: neighbour, Quantum: quantum}
}

// StartNeighbour launches the background binary (and remembers it for
// restarts).
func (c *CoExec) StartNeighbour(name string, arg []byte) error {
	c.neighbourName = name
	c.neighbourArg = arg
	if _, ok := c.Neighbour.Image(name); !ok {
		if _, err := c.Neighbour.Load(name); err != nil {
			return err
		}
	}
	if arg != nil {
		if _, err := c.Neighbour.SetArg(arg); err != nil {
			return err
		}
	}
	return c.Neighbour.Start(name)
}

// Run executes the primary to completion (or its budget), interleaving
// the neighbour every quantum. Neighbour faults end its participation
// silently (it is scenery); primary errors are returned.
func (c *CoExec) Run(primaryBudget uint64) error {
	if c.neighbourName == "" {
		return fmt.Errorf("vm: co-exec neighbour not started")
	}
	retired := uint64(0)
	for retired < primaryBudget && !c.Primary.CPU.Halted() {
		// Primary quantum.
		for q := uint64(0); q < c.Quantum && retired < primaryBudget; q++ {
			if c.Primary.CPU.Halted() {
				return nil
			}
			if err := c.Primary.CPU.Step(); err != nil {
				return err
			}
			retired++
		}
		c.stepNeighbour()
	}
	if c.Primary.CPU.Halted() {
		return nil
	}
	return cpu.ErrBudget
}

// stepNeighbour advances the background machine one quantum, restarting
// it when it exits and abandoning it on faults.
func (c *CoExec) stepNeighbour() {
	n := c.Neighbour
	for q := uint64(0); q < c.Quantum; q++ {
		if n.CPU.Halted() {
			// Restart the background app: endless ambient load.
			if c.neighbourArg != nil {
				if _, err := n.SetArg(c.neighbourArg); err != nil {
					return
				}
			}
			if err := n.Start(c.neighbourName); err != nil {
				return
			}
		}
		if err := n.CPU.Step(); err != nil {
			return
		}
	}
}
