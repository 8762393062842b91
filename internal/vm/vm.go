// Package vm assembles the simulated platform: physical memory, one
// speculative core, a program loader with optional ASLR, and a small
// syscall layer (exit, putchar, putint, exec, abort). The EXEC syscall is
// the pivot of the CR-Spectre reproduction: a ROP chain in a hijacked
// host issues EXEC to start the registered attack binary inside the same
// address space, exactly as the paper's gadget chain invokes `execve` on
// the Spectre binary.
package vm

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// Syscall numbers (placed in R0 before SYSCALL).
const (
	SysExit    = 0 // R1 = exit code
	SysPutchar = 1 // R1 = byte appended to the machine's output buffer
	SysPutint  = 2 // R1 = value printed in decimal plus newline
	SysExec    = 3 // R1 = address of NUL-terminated registered binary name
	SysAbort   = 4 // R1 = abort reason code (stack-smashing detected, ...)
)

// AbortStackSmash is the SysAbort reason code a canary-protected function
// passes when it detects a corrupted stack.
const AbortStackSmash = 0x57ac

// Default layout constants.
const (
	DefaultMemSize   = 16 << 20 // 16 MiB
	DefaultStackSize = 256 << 10
	ArgBase          = 0x8000 // argument area mapped RW for program inputs
	ArgSize          = 2 * mem.PageSize

	// environSize is the mapped region above the initial stack pointer
	// (argv/envp analogue); overflow payloads spill into it.
	environSize = mem.PageSize
)

// Config parameterises a Machine.
type Config struct {
	MemSize   uint64
	StackSize uint64
	CPU       cpu.Config

	// ASLR randomises each image's load base by a page-aligned slide in
	// [0, ASLRSlidePages) pages, seeded for reproducibility.
	ASLR           bool
	ASLRSeed       int64
	ASLRSlidePages int

	// StackExecutable disables DEP on the stack (maps it R+W+X),
	// re-enabling classic shellcode injection — the configuration whose
	// absence forces the paper's code-reuse approach.
	StackExecutable bool

	// Telemetry, when non-nil, is attached to the core (and its cache
	// hierarchy) at construction, and the machine watches the word just
	// below the initial stack pointer — the first saved-return-address
	// slot an overflow reaches — for stack-smash stores.
	Telemetry *telemetry.Recorder
}

// DefaultConfig returns a machine configuration with the baseline core.
func DefaultConfig() Config {
	return Config{
		MemSize:        DefaultMemSize,
		StackSize:      DefaultStackSize,
		CPU:            cpu.DefaultConfig(),
		ASLRSlidePages: 256,
	}
}

// Machine is one simulated computer.
type Machine struct {
	Mem *mem.Memory
	CPU *cpu.CPU

	cfg      Config
	rng      *rand.Rand
	stackTop uint64
	arglen   uint64

	binaries map[string]registered
	images   map[string]*isa.Image

	// Output accumulates SysPutchar/SysPutint bytes.
	Output bytes.Buffer
	// ExitCode is the R1 passed to SysExit (or SysAbort reason).
	ExitCode uint64
	// Aborted reports that the program terminated via SysAbort.
	Aborted bool
	// ExecLog records the binary names started via SysExec, in order.
	ExecLog []string
	// OnLoad, when set, runs after an image is mapped — the hook the
	// defense layer uses to install stack canaries and similar
	// load-time state.
	OnLoad func(name string, img *isa.Image)
}

type registered struct {
	mod  *isa.Module
	base uint64
}

// New builds a machine with the given configuration.
func New(cfg Config) *Machine {
	m := new(Machine)
	m.Reset(cfg)
	return m
}

// machines is the process's one machine pool. The campaign pools and
// defense.Evaluate take their machines from it, so a machine outlives
// the pool or call it ran in and the next one skips backing its pages,
// page tables, caches, predecode tables and branch units again.
var machines = sync.Pool{New: func() any { return new(Machine) }}

// Get takes a machine from the process's pool, or a zero one when the
// pool is empty. It is in whatever state its last run left it: Reset is
// the only way to prepare it, exactly as for a zero Machine.
func Get() *Machine { return machines.Get().(*Machine) }

// Put returns m to the pool once nothing its caller keeps references
// it: its Mem, CPU, Output and images are the next Get's. Callers put a
// machine back only when its run returned, so a run that panicked
// leaves its machine to the collector. A machine whose CPU.Caches
// another machine shares (either side of a CoExec pair) must not be
// put, since the next Reset would reset the hierarchy under the other.
func Put(m *Machine) { machines.Put(m) }

// Reset returns the machine to exactly the state New(cfg) builds while
// keeping its allocations: the memory's page arrays and tables
// (mem.Memory.Reset), the core's tables (cpu.CPU.Reset), the ASLR
// generator (reseeded), the binary and image maps and the output buffer.
// Registrations, loaded images, output, exit state, the exec log and the
// OnLoad hook are dropped like on a new machine. A zero Machine is
// valid, and so is one from the pool (Get), whatever its last run was.
func (m *Machine) Reset(cfg Config) {
	if cfg.MemSize == 0 {
		cfg.MemSize = DefaultMemSize
	}
	if cfg.StackSize == 0 {
		cfg.StackSize = DefaultStackSize
	}
	if m.Mem == nil {
		m.Mem = new(mem.Memory)
	}
	m.Mem.Reset(cfg.MemSize)
	if m.CPU == nil {
		m.CPU = new(cpu.CPU)
	}
	m.CPU.Reset(m.Mem, cfg.CPU)
	if m.rng == nil {
		m.rng = rand.New(rand.NewSource(cfg.ASLRSeed))
	} else {
		m.rng.Seed(cfg.ASLRSeed)
	}
	if m.binaries == nil {
		m.binaries, m.images = map[string]registered{}, map[string]*isa.Image{}
	} else {
		clear(m.binaries)
		clear(m.images)
	}
	m.cfg, m.arglen = cfg, 0
	m.Output.Reset()
	m.ExitCode, m.Aborted, m.ExecLog, m.OnLoad = 0, false, nil, nil

	m.CPU.OnSyscall = m.syscall
	if cfg.Telemetry != nil {
		m.CPU.AttachTelemetry(cfg.Telemetry)
	}

	// Stack: the top page is an unmapped guard. Below it sits a mapped
	// "environment area" above the initial SP — the analogue of argv/
	// envp on a real process stack — which is what an overflow past the
	// saved return address spills into.
	m.stackTop = cfg.MemSize - mem.PageSize - environSize
	stackPerm := mem.PermRW
	if cfg.StackExecutable {
		stackPerm = mem.PermRWX
	}
	if err := m.Mem.Protect(m.stackTop-cfg.StackSize, cfg.StackSize+environSize, stackPerm); err != nil {
		panic(err)
	}
	// Argument area.
	if err := m.Mem.Protect(ArgBase, ArgSize, mem.PermRW); err != nil {
		panic(err)
	}
	if cfg.Telemetry != nil {
		// The word just below the initial SP holds the first saved return
		// address a main-frame overflow can reach.
		m.CPU.SetSmashWatch(m.stackTop-8, 8)
	}
}

// StackTop returns the initial stack pointer value.
func (m *Machine) StackTop() uint64 { return m.stackTop }

// Register makes a module launchable via SysExec under the given name,
// with a preferred load base (slid when ASLR is on).
func (m *Machine) Register(name string, mod *isa.Module, base uint64) {
	m.binaries[name] = registered{mod: mod, base: base}
}

// slide returns the ASLR displacement for a new mapping.
func (m *Machine) slide() uint64 {
	if !m.cfg.ASLR || m.cfg.ASLRSlidePages <= 0 {
		return 0
	}
	return uint64(m.rng.Intn(m.cfg.ASLRSlidePages)) * mem.PageSize
}

// Load links a registered binary at its (possibly slid) base and maps it:
// code pages R+X, data pages R+W (DEP). It returns the mapped image.
func (m *Machine) Load(name string) (*isa.Image, error) {
	reg, ok := m.binaries[name]
	if !ok {
		return nil, fmt.Errorf("vm: no registered binary %q", name)
	}
	img, err := reg.mod.Link(reg.base + m.slide())
	if err != nil {
		return nil, err
	}
	if err := img.MapInto(m.Mem); err != nil {
		return nil, err
	}
	m.images[name] = img
	if m.OnLoad != nil {
		m.OnLoad(name, img)
	}
	return img, nil
}

// Image returns the currently loaded image for name, if any.
func (m *Machine) Image(name string) (*isa.Image, bool) {
	img, ok := m.images[name]
	return img, ok
}

// SetArg writes the program argument bytes into the argument area and
// returns its address. The machine passes (addr, len) in R1/R2 at Start.
func (m *Machine) SetArg(arg []byte) (uint64, error) {
	if len(arg) > ArgSize {
		return 0, fmt.Errorf("vm: argument of %d bytes exceeds area (%d)", len(arg), ArgSize)
	}
	if err := m.Mem.LoadRaw(ArgBase, arg); err != nil {
		return 0, err
	}
	m.arglen = uint64(len(arg))
	return ArgBase, nil
}

// Start prepares the core to run the named (already loaded) binary:
// fresh stack pointer, R1/R2 = argument area address/length, PC = entry.
func (m *Machine) Start(name string) error {
	img, ok := m.images[name]
	if !ok {
		return fmt.Errorf("vm: binary %q not loaded", name)
	}
	m.CPU.Resume()
	m.CPU.Regs = [isa.NumRegs]uint64{}
	m.CPU.Regs[isa.RegSP] = m.stackTop
	m.CPU.Regs[1] = ArgBase
	m.CPU.Regs[2] = m.arglen
	m.CPU.PC = img.Entry
	return nil
}

// Exec loads (unless already loaded), starts and runs a registered
// binary to completion within the instruction budget.
func (m *Machine) Exec(name string, arg []byte, budget uint64) error {
	if _, ok := m.images[name]; !ok {
		if _, err := m.Load(name); err != nil {
			return err
		}
	}
	if arg != nil {
		if _, err := m.SetArg(arg); err != nil {
			return err
		}
	}
	if err := m.Start(name); err != nil {
		return err
	}
	return m.CPU.Run(budget)
}

func (m *Machine) syscall(c *cpu.CPU) error {
	switch c.Regs[0] {
	case SysExit:
		m.ExitCode = c.Regs[1]
		c.Halt()
	case SysPutchar:
		m.Output.WriteByte(byte(c.Regs[1]))
	case SysPutint:
		fmt.Fprintf(&m.Output, "%d\n", c.Regs[1])
	case SysExec:
		path, err := m.Mem.ReadCString(c.Regs[1], 256)
		if err != nil {
			return fmt.Errorf("vm: exec path: %w", err)
		}
		// "name#symbol" execs at a named entry point instead of the
		// image default (used by the attack binary to resume the host's
		// workload after stealing the secret).
		name, sym := path, ""
		if i := strings.IndexByte(path, '#'); i >= 0 {
			name, sym = path[:i], path[i+1:]
		}
		img, ok := m.images[name]
		if !ok {
			if img, err = m.Load(name); err != nil {
				return fmt.Errorf("vm: exec: %w", err)
			}
		}
		entry := img.Entry
		if sym != "" {
			a, ok := img.Symbol(sym)
			if !ok {
				return fmt.Errorf("vm: exec: no symbol %q in %q", sym, name)
			}
			entry = a
		}
		m.ExecLog = append(m.ExecLog, path)
		if tel := c.Telemetry(); tel != nil {
			tel.Emit(telemetry.Event{
				Kind: telemetry.KindExec, Cycle: c.Cycle, PC: c.PC, Addr: entry,
			})
		}
		// exec does not return: fresh stack, jump to the new entry.
		c.Regs[isa.RegSP] = m.stackTop
		c.PC = entry
	case SysAbort:
		m.ExitCode = c.Regs[1]
		m.Aborted = true
		if tel := c.Telemetry(); tel != nil && c.Regs[1] == AbortStackSmash {
			// The canary detected the corruption: record it as a smash
			// event even when the raw store was outside the watch window.
			tel.Emit(telemetry.Event{
				Kind: telemetry.KindStackSmash, Cycle: c.Cycle, PC: c.PC, Val: c.Regs[1],
			})
		}
		c.Halt()
	default:
		return fmt.Errorf("vm: unknown syscall %d", c.Regs[0])
	}
	return nil
}
