// Package rop reproduces the paper's attack-injection mechanism (§II-C):
// a host application with a buffer-overflow-vulnerable input function, a
// runtime library whose function epilogues provide ROP gadgets, and a
// payload builder that overwrites the saved return address with a gadget
// chain issuing the EXEC syscall on the attacker's binary — the analogue
// of Listing 1's `"D"*0x6C + address-of-system + ... + address-of-attack`
// payload.
//
// One deliberate substitution: the paper's host reads a C string
// (strcpy), which cannot carry NUL bytes; real exploits work around this.
// Our vulnerable function is a length-prefixed copy (memcpy with an
// attacker-controlled length), which preserves the identical control-flow
// hijack while keeping payload bytes unconstrained. DESIGN.md records
// this.
package rop

import (
	"fmt"

	"repro/internal/gadget"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// BufferOffset is the distance in bytes from the vulnerable function's
// stack buffer to its saved return address (the paper uses 108 = 0x6C;
// ours is 112 to keep 8-byte alignment).
const BufferOffset = 112

// Filler is the byte used to pad the payload up to the return address
// (the paper's "D").
const Filler = 'D'

// RuntimeAsm is the host-side runtime ("libc") appended to every host
// program. Its syscall wrappers and callee-save epilogues are the gadget
// supply: rt_putchar restores r0 before returning ("pop r0; ret"),
// rt_memcpy restores r1 ("pop r1; ret"), rt_memset restores r2 and
// rt_strlen restores r3, and rt_syscall's tail is "syscall; ret".
const RuntimeAsm = `
; ---------------- runtime (gadget-bearing "libc") ----------------
rt_exit:                 ; exit(r1); does not return
	movi r0, 0
	syscall
	ret
rt_syscall:              ; raw syscall wrapper: caller sets r0..r3
	syscall
	ret
rt_putchar:              ; putchar(r1)
	push r0
	movi r0, 1
	syscall
	pop r0
	ret
rt_putint:               ; putint(r1): prints decimal + newline
	push r0
	movi r0, 2
	syscall
	pop r0
	ret
rt_memcpy:               ; memcpy(r2=dst, r3=src, r4=len); preserves r1
	push r1
rt_memcpy_loop:
	cmpi r4, 0
	je rt_memcpy_done
	loadb r1, [r3]
	storeb [r2], r1
	addi r2, r2, 1
	addi r3, r3, 1
	subi r4, r4, 1
	jmp rt_memcpy_loop
rt_memcpy_done:
	pop r1
	ret
rt_memset:               ; memset(r3=dst, r4=val, r5=len); preserves r2
	push r2
rt_memset_loop:
	cmpi r5, 0
	je rt_memset_done
	storeb [r3], r4
	addi r3, r3, 1
	subi r5, r5, 1
	jmp rt_memset_loop
rt_memset_done:
	pop r2
	ret
rt_strlen:               ; strlen(r1) -> r0; preserves r3
	push r3
	movi r0, 0
rt_strlen_loop:
	mov r3, r1
	add r3, r3, r0
	loadb r3, [r3]
	cmpi r3, 0
	je rt_strlen_done
	addi r0, r0, 1
	jmp rt_strlen_loop
rt_strlen_done:
	pop r3
	ret
`

// vulnPlainAsm is the paper's Algorithm-1 vulnerable function: copy the
// caller-supplied input (r1=src, r2=len) into a fixed 112-byte stack
// buffer with no bounds check.
const vulnPlainAsm = `
vulnerable_function:
	subi sp, sp, 112
	mov r3, sp
	mov r4, r1
	mov r5, r2
vf_copy:
	cmpi r5, 0
	je vf_done
	loadb r6, [r4]
	storeb [r3], r6
	addi r3, r3, 1
	addi r4, r4, 1
	subi r5, r5, 1
	jmp vf_copy
vf_done:
	addi sp, sp, 112
	ret
`

// vulnCanaryAsm is the same function hardened with a stack canary (paper
// §I, ref [12]): a secret word sits between the buffer and the return
// address and is checked before returning; a mismatch aborts.
const vulnCanaryAsm = `
vulnerable_function:
	movi r7, __canary
	load r7, [r7]
	push r7                  ; canary below the return address
	subi sp, sp, 112
	mov r3, sp
	mov r4, r1
	mov r5, r2
vf_copy:
	cmpi r5, 0
	je vf_done
	loadb r6, [r4]
	storeb [r3], r6
	addi r3, r3, 1
	addi r4, r4, 1
	subi r5, r5, 1
	jmp vf_copy
vf_done:
	addi sp, sp, 112
	pop r8
	movi r7, __canary
	load r7, [r7]
	cmp r7, r8
	jne vf_smash
	ret
vf_smash:
	movi r0, 4               ; SysAbort
	movi r1, 0x57ac          ; AbortStackSmash
	syscall
	halt
`

// canaryData declares the canary storage the loader randomises.
const canaryData = "\n__canary: .word 0\n"

// HostOptions configures host program generation.
type HostOptions struct {
	// Canary guards the vulnerable function with a stack canary.
	Canary bool
	// Secret, when non-empty, embeds the target secret in the host's
	// data section as the `__secret` symbol — the paper's threat model
	// ("the secret as an array that is stored in the host application;
	// the host never accesses the secret").
	Secret string
}

// HostSource builds a complete host program: entry point that feeds the
// program argument through the vulnerable function, then runs the
// workload (a `workload_main:` routine provided by the caller, e.g. a
// MiBench kernel), then exits. workloadAsm may declare its own data after
// a `.data` directive; the vulnerable function and runtime are inserted
// in the text section before it.
func HostSource(workloadAsm string, opts HostOptions) string {
	vuln := vulnPlainAsm
	extraData := ""
	if opts.Canary {
		vuln = vulnCanaryAsm
		extraData = canaryData
	}
	if opts.Secret != "" {
		extraData += fmt.Sprintf("\n.align 64\n__secret: .asciz %q\n", opts.Secret)
	}
	return `.entry _start
_start:
	call vulnerable_function
	; Verbose diagnostics path (the info-leak primitive the published
	; ASLR/canary bypasses rely on): inputs starting "DBG" echo two
	; stale stack words from the just-returned frame — the saved return
	; address (pinpointing the load base) and, on canary builds, the
	; canary value.
	cmpi r2, 3
	jb workload_entry
	loadb r3, [r1]
	cmpi r3, 'D'
	jne workload_entry
	loadb r3, [r1+1]
	cmpi r3, 'B'
	jne workload_entry
	loadb r3, [r1+2]
	cmpi r3, 'G'
	jne workload_entry
	load r3, [sp-8]          ; stale saved return address
	load r4, [sp-16]         ; stale canary slot (junk on plain builds)
	mov r1, r3
	call rt_putint
	mov r1, r4
	call rt_putint
workload_entry:              ; exec target "host#workload_entry" resumes here
	call workload_main
	movi r0, 0
	movi r1, 0
	syscall
	halt
` + vuln + RuntimeAsm + "\n" + workloadAsm + "\n.data\n" + extraData
}

// BuildExecChain constructs the gadget chain that performs
// EXEC(nameAddr): load SysExec into r0 and the binary-name pointer into
// r1 via pop gadgets, then enter a syscall gadget. It fails when the host
// image does not supply the needed gadgets.
func BuildExecChain(cat *gadget.Catalog, nameAddr uint64) (*gadget.Chain, error) {
	return cat.BuildSyscall(
		gadget.RegValue{Reg: 1, Value: nameAddr},
		gadget.RegValue{Reg: 0, Value: vm.SysExec},
	)
}

// PayloadLayout describes where BuildPayload placed its pieces, for
// documentation and tests.
type PayloadLayout struct {
	NameOffset   int // offset of the exec-name string (0)
	FillerLen    int // bytes of filler up to the canary/return address
	CanaryOffset int // -1 when no canary word is embedded
	ChainOffset  int // offset of the first chain word (the return address)
}

// BuildPayload serialises the overflow input: the attack binary's name
// (so it has a known address inside the argument area), filler up to the
// saved return address, an optional leaked canary word, then the chain.
// The returned layout locates each piece.
func BuildPayload(chain *gadget.Chain, execName string, canary *uint64) ([]byte, PayloadLayout) {
	lay := PayloadLayout{CanaryOffset: -1}
	payload := make([]byte, 0, BufferOffset+16+8*chain.Len())
	payload = append(payload, execName...)
	payload = append(payload, 0)
	for len(payload) < BufferOffset {
		payload = append(payload, Filler)
	}
	lay.FillerLen = BufferOffset - len(execName) - 1
	if canary != nil {
		lay.CanaryOffset = len(payload)
		var w [8]byte
		for i := 0; i < 8; i++ {
			w[i] = byte(*canary >> (8 * i))
		}
		payload = append(payload, w[:]...)
	}
	lay.ChainOffset = len(payload)
	payload = append(payload, chain.Bytes()...)
	return payload, lay
}

// NameAddr returns the in-memory address of the exec-name string inside
// a payload staged at the machine argument area.
func NameAddr() uint64 { return vm.ArgBase }

// Plan bundles everything an injection run needs: the payload plus its
// provenance, for logging and tests.
type Plan struct {
	Chain   *gadget.Chain
	Payload []byte
	Layout  PayloadLayout
}

// Emit records the plan on the telemetry stream: Val is the chain
// length in words, Addr the payload size in bytes.
func (p *Plan) Emit(rec *telemetry.Recorder) {
	if rec == nil {
		return
	}
	rec.Emit(telemetry.Event{
		Kind: telemetry.KindRopPlan,
		Addr: uint64(len(p.Payload)),
		Val:  uint64(len(p.Chain.Words())),
	})
}

// PlanInjection scans the loaded host image, builds the EXEC chain for
// the named attack binary and serialises the payload. canary, when
// non-nil, is the leaked stack canary to splice in.
func PlanInjection(cat *gadget.Catalog, attackName string, canary *uint64) (*Plan, error) {
	if len(attackName)+1 > BufferOffset {
		return nil, fmt.Errorf("rop: attack name %q too long for buffer", attackName)
	}
	chain, err := BuildExecChain(cat, NameAddr())
	if err != nil {
		return nil, err
	}
	payload, lay := BuildPayload(chain, attackName, canary)
	return &Plan{Chain: chain, Payload: payload, Layout: lay}, nil
}
