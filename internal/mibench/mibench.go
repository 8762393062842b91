// Package mibench provides the benchmark workloads the paper uses as
// hosts (MiBench, ref [23]): basicmath, bitcount, SHA, plus qsort,
// CRC32, dijkstra, stringsearch, FFT and susan from the same suite, and
// the background applications of the benign corpus. Each workload is
// written in the simulated ISA as a `workload_main:` routine, wrapped by
// rop.HostSource into a complete host binary with the vulnerable input
// function and the gadget-bearing runtime.
//
// Every workload prints a checksum through rt_putint; its Expected
// method computes the same value in Go, so tests can verify the
// assembly bit-for-bit. Workload sizes are scaled ~1000x down from the
// paper's native parameters (e.g. "Bitcount 50M" runs 50k operations) so
// a full experiment sweep completes in CI time; the scaling is recorded
// in DESIGN.md and EXPERIMENTS.md.
package mibench

import (
	"fmt"
	"sync"

	"repro/internal/isa"
	"repro/internal/rop"
)

// Workload is one benchmark kernel plus its parameters.
type Workload struct {
	// Name identifies the workload (Table I row names).
	Name string
	// Asm is the `workload_main:` routine plus any `.data` it needs.
	Asm string
	// ref computes, in Go, the checksum the workload prints.
	ref func() uint64
}

// Expected is the exact output the workload prints, from its Go
// reference implementation. The reference runs on each call, and only
// when called: building a workload never runs it.
func (w Workload) Expected() string { return putint(w.ref()) }

// HostModule wraps the workload in the vulnerable host scaffold and
// assembles it. Each (Asm, opts) pair is assembled once per process and
// the module shared by every later call, from any goroutine: a Module is
// never written after isa.Assemble returns, and the Images Link makes
// share its data runs read-only (a run a relocation patches is copied).
func (w Workload) HostModule(opts rop.HostOptions) (*isa.Module, error) {
	key := hostKey{w.Asm, opts}
	if mod, ok := hostModules.Load(key); ok {
		return mod.(*isa.Module), nil
	}
	mod, err := isa.Assemble(rop.HostSource(w.Asm, opts))
	if err != nil {
		return nil, err
	}
	shared, _ := hostModules.LoadOrStore(key, mod)
	return shared.(*isa.Module), nil
}

// hostModules memoises HostModule: hostKey -> *isa.Module.
var hostModules sync.Map

type hostKey struct {
	asm  string
	opts rop.HostOptions
}

// Suite returns the Table I workloads: Math, Bitcount 50M, Bitcount
// 100M, SHA 1, SHA 2 (sizes scaled; see package comment).
func Suite() []Workload {
	return []Workload{
		Math(300),
		Bitcount("bitcount_50M", 20_000),
		Bitcount("bitcount_100M", 40_000),
		SHA1(40),
		SHA2(40),
	}
}

// Extended returns the additional MiBench-style hosts used for Fig. 4's
// host diversity and the benign corpus: qsort, CRC32, dijkstra,
// stringsearch.
func Extended() []Workload {
	return []Workload{
		Qsort(384),
		CRC32(6_000),
		Dijkstra(12),
		StringSearch(20_000),
		FFT(6),
		Susan(6),
	}
}

// All returns Suite plus Extended.
func All() []Workload {
	return append(Suite(), Extended()...)
}

// ByName finds a workload from AllWithBackgrounds by name.
func ByName(name string) (Workload, error) {
	for _, w := range AllWithBackgrounds() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("mibench: unknown workload %q", name)
}

// Math is the basicmath-style kernel: integer square roots (Newton) and
// GCDs over a hashed sequence.
func Math(n int) Workload {
	asm := fmt.Sprintf(`
workload_main:
	push bp
	movi r3, 1            ; i
	movi r4, 0            ; sum
	movi r10, %d          ; limit
wl_math_loop:
	movi r5, 2654435761
	mul r5, r5, r3
	movi r6, 0xffffffff
	and r5, r5, r6        ; v = (i * 2654435761) & 0xffffffff
	mov r1, r5
	call wl_isqrt
	add r4, r4, r0
	movi r6, 0xffff
	and r1, r5, r6
	addi r1, r1, 1
	movi r2, 60000
	call wl_gcd
	add r4, r4, r0
	addi r3, r3, 1
	cmp r3, r10
	jbe wl_math_loop
	mov r1, r4
	call rt_putint
	pop bp
	ret

wl_isqrt:                ; isqrt(r1) -> r0, Newton iteration
	cmpi r1, 2
	jae wl_isq_go
	mov r0, r1
	ret
wl_isq_go:
	mov r6, r1            ; x = v
	mov r7, r1
	shri r7, r7, 1
	addi r7, r7, 1        ; y = v/2 + 1
wl_isq_loop:
	cmp r7, r6
	jae wl_isq_done
	mov r6, r7
	mov r8, r1
	div r8, r8, r6
	add r7, r6, r8
	shri r7, r7, 1
	jmp wl_isq_loop
wl_isq_done:
	mov r0, r6
	ret

wl_gcd:                  ; gcd(r1, r2) -> r0
wl_gcd_loop:
	cmpi r2, 0
	je wl_gcd_done
	mov r6, r2
	mod r2, r1, r2
	mov r1, r6
	jmp wl_gcd_loop
wl_gcd_done:
	mov r0, r1
	ret
`, n)
	return Workload{Name: "math", Asm: asm, ref: func() uint64 { return refMath(n) }}
}

// Bitcount is the bitcount kernel: Kernighan popcounts over an LCG
// stream. The name parameter lets Suite expose the paper's 50M and 100M
// variants as distinct rows.
func Bitcount(name string, ops int) Workload {
	asm := fmt.Sprintf(`
workload_main:
	movi r3, 0             ; popcount accumulator
	movi r4, 0x2545F4914F6CDD1D
	movi r5, %d            ; remaining values
wl_bc_loop:
	movi r6, 6364136223846793005
	mul r4, r4, r6
	movi r6, 1442695040888963407
	add r4, r4, r6
	mov r7, r4
wl_bc_inner:
	cmpi r7, 0
	je wl_bc_next
	mov r8, r7
	subi r8, r8, 1
	and r7, r7, r8
	addi r3, r3, 1
	jmp wl_bc_inner
wl_bc_next:
	subi r5, r5, 1
	cmpi r5, 0
	jne wl_bc_loop
	mov r1, r3
	call rt_putint
	ret
`, ops)
	return Workload{Name: name, Asm: asm, ref: func() uint64 { return refBitcount(ops) }}
}

// SHA1 is an SHA-1-flavoured mixing kernel: 80 rounds per block of
// rotate/xor/add over a 16-word schedule (64-bit lanes; the reference
// mirrors it exactly).
func SHA1(blocks int) Workload {
	asm := fmt.Sprintf(`
workload_main:
	movi r3, 0x67452301    ; a
	movi r4, 0xEFCDAB89    ; b
	movi r5, 0x98BADCFE    ; c
	movi r6, 0x10325476    ; d
	movi r7, 0xC3D2E1F0    ; e
	movi r9, %d            ; blocks
	movi r10, wl_sha_w
	movi r8, 0
wl_sha_init:               ; w[i] = i*0x9E3779B9 ^ 0x5A827999
	movi r11, 0x9E3779B9
	mul r11, r11, r8
	movi r12, 0x5A827999
	xor r11, r11, r12
	mov r12, r8
	shli r12, r12, 3
	add r12, r12, r10
	store [r12], r11
	addi r8, r8, 1
	cmpi r8, 16
	jb wl_sha_init
wl_sha_block:
	movi r8, 0             ; round
wl_sha_round:
	mov r11, r8
	andi r11, r11, 15
	shli r11, r11, 3
	add r11, r11, r10
	load r12, [r11]        ; wv = w[round & 15]
	mov r13, r12
	xor r13, r13, r3
	xor r13, r13, r7       ; schedule update: rotl1(wv ^ a ^ e)
	mov r0, r13
	shli r13, r13, 1
	shri r0, r0, 63
	or r13, r13, r0
	store [r11], r13
	cmpi r8, 20
	jb wl_sha_f1
	cmpi r8, 40
	jb wl_sha_f2
	cmpi r8, 60
	jb wl_sha_f3
	mov r2, r4             ; f4 = b ^ c ^ d
	xor r2, r2, r5
	xor r2, r2, r6
	movi r0, 0xCA62C1D6
	jmp wl_sha_fdone
wl_sha_f3:                 ; f3 = maj(b, c, d)
	mov r2, r4
	and r2, r2, r5
	mov r0, r4
	and r0, r0, r6
	or r2, r2, r0
	mov r0, r5
	and r0, r0, r6
	or r2, r2, r0
	movi r0, 0x8F1BBCDC
	jmp wl_sha_fdone
wl_sha_f2:                 ; f2 = b ^ c ^ d
	mov r2, r4
	xor r2, r2, r5
	xor r2, r2, r6
	movi r0, 0x6ED9EBA1
	jmp wl_sha_fdone
wl_sha_f1:                 ; f1 = ch(b, c, d)
	mov r2, r5
	xor r2, r2, r6
	and r2, r2, r4
	xor r2, r2, r6
	movi r0, 0x5A827999
wl_sha_fdone:
	mov r1, r3             ; t = rotl5(a) + f + e + k + wv
	mov r13, r3
	shli r1, r1, 5
	shri r13, r13, 59
	or r1, r1, r13
	add r1, r1, r2
	add r1, r1, r7
	add r1, r1, r0
	add r1, r1, r12
	mov r7, r6             ; e = d
	mov r6, r5             ; d = c
	mov r5, r4             ; c = rotl30(b)
	mov r0, r4
	shli r5, r5, 30
	shri r0, r0, 34
	or r5, r5, r0
	mov r4, r3             ; b = a
	mov r3, r1             ; a = t
	addi r8, r8, 1
	cmpi r8, 80
	jb wl_sha_round
	subi r9, r9, 1
	cmpi r9, 0
	jne wl_sha_block
	add r3, r3, r4
	add r3, r3, r5
	add r3, r3, r6
	add r3, r3, r7
	mov r1, r3
	call rt_putint
	ret
.data
.align 64
wl_sha_w: .space 128
`, blocks)
	return Workload{Name: "sha_1", Asm: asm, ref: func() uint64 { return refSHA1(blocks) }}
}

// SHA2 is an SHA-256-flavoured variant: 64 rounds with right-rotation
// sigmas and a two-way round function, texturally distinct from SHA1.
func SHA2(blocks int) Workload {
	asm := fmt.Sprintf(`
workload_main:
	movi r3, 0x6A09E667    ; a
	movi r4, 0xBB67AE85    ; b
	movi r5, 0x3C6EF372    ; c
	movi r6, 0xA54FF53A    ; d
	movi r7, 0x510E527F    ; e
	movi r9, %d            ; blocks
	movi r10, wl_sh2_w
	movi r8, 0
wl_sh2_init:               ; w[i] = i*0xB5C0FBCF ^ 0x71374491
	movi r11, 0xB5C0FBCF
	mul r11, r11, r8
	movi r12, 0x71374491
	xor r11, r11, r12
	mov r12, r8
	shli r12, r12, 3
	add r12, r12, r10
	store [r12], r11
	addi r8, r8, 1
	cmpi r8, 16
	jb wl_sh2_init
wl_sh2_block:
	movi r8, 0
wl_sh2_round:
	mov r11, r8
	andi r11, r11, 15
	shli r11, r11, 3
	add r11, r11, r10
	load r12, [r11]        ; wv
	mov r13, r12           ; wnew = rotr7(wv) ^ rotr19(wv) ^ a
	mov r0, r12
	shri r13, r13, 7
	shli r0, r0, 57
	or r13, r13, r0
	mov r0, r12
	mov r1, r12
	shri r0, r0, 19
	shli r1, r1, 45
	or r0, r0, r1
	xor r13, r13, r0
	xor r13, r13, r3
	store [r11], r13
	cmpi r8, 32
	jb wl_sh2_f1
	mov r2, r4             ; f2 = maj(b, c, d)
	and r2, r2, r5
	mov r0, r4
	and r0, r0, r6
	or r2, r2, r0
	mov r0, r5
	and r0, r0, r6
	or r2, r2, r0
	movi r0, 0x7137449123EF65CD
	jmp wl_sh2_fdone
wl_sh2_f1:                 ; f1 = ch(b, c, d)
	mov r2, r5
	xor r2, r2, r6
	and r2, r2, r4
	xor r2, r2, r6
	movi r0, 0x428A2F98D728AE22
wl_sh2_fdone:
	mov r1, r3             ; t = rotr14(a) + f + e + k + wnew
	mov r12, r3
	shri r1, r1, 14
	shli r12, r12, 50
	or r1, r1, r12
	add r1, r1, r2
	add r1, r1, r7
	add r1, r1, r0
	add r1, r1, r13
	mov r7, r6             ; e = d
	mov r6, r5             ; d = c
	mov r5, r4             ; c = rotr9(b)
	mov r0, r4
	shri r5, r5, 9
	shli r0, r0, 55
	or r5, r5, r0
	mov r4, r3             ; b = a
	mov r3, r1             ; a = t
	addi r8, r8, 1
	cmpi r8, 64
	jb wl_sh2_round
	subi r9, r9, 1
	cmpi r9, 0
	jne wl_sh2_block
	add r3, r3, r4
	add r3, r3, r5
	add r3, r3, r6
	add r3, r3, r7
	mov r1, r3
	call rt_putint
	ret
.data
.align 64
wl_sh2_w: .space 128
`, blocks)
	return Workload{Name: "sha_2", Asm: asm, ref: func() uint64 { return refSHA2(blocks) }}
}

// Qsort fills an array from an LCG and quicksorts it recursively
// (stressing the call stack and RSB), then prints a position-weighted
// checksum with an inversion penalty that exposes sorting bugs.
func Qsort(n int) Workload {
	asm := fmt.Sprintf(`
workload_main:
	push bp
	movi r3, 0
	movi r4, 88172645463325252
	movi r10, wl_qs_arr
	movi r11, %d
wl_qs_fill:
	movi r6, 6364136223846793005
	mul r4, r4, r6
	movi r6, 1442695040888963407
	add r4, r4, r6
	mov r6, r4
	shri r6, r6, 16
	movi r7, 0xffffff
	and r6, r6, r7
	mov r7, r3
	shli r7, r7, 3
	add r7, r7, r10
	store [r7], r6
	addi r3, r3, 1
	cmp r3, r11
	jb wl_qs_fill
	movi r1, 0
	mov r2, r11
	subi r2, r2, 1
	call wl_qsort
	movi r3, 0
	movi r5, 0             ; checksum
	movi r8, 0             ; prev
wl_qs_sum:
	mov r7, r3
	shli r7, r7, 3
	add r7, r7, r10
	load r6, [r7]
	cmp r6, r8
	jae wl_qs_ok
	movi r9, 999999999     ; inversion penalty: the array is unsorted
	add r5, r5, r9
wl_qs_ok:
	mov r8, r6
	mov r9, r3
	addi r9, r9, 1
	mul r9, r9, r6
	add r5, r5, r9
	addi r3, r3, 1
	cmp r3, r11
	jb wl_qs_sum
	mov r1, r5
	call rt_putint
	pop bp
	ret

wl_qsort:                  ; qsort(r1=lo, r2=hi) signed indices; r10 = base
	cmp r1, r2
	jl wl_qs_go
	ret
wl_qs_go:
	push r1
	push r2
	mov r6, r2             ; Lomuto partition, pivot = a[hi]
	shli r6, r6, 3
	add r6, r6, r10
	load r7, [r6]
	mov r8, r1             ; store index
	mov r9, r1             ; scan index
wl_qs_part:
	cmp r9, r2
	jge wl_qs_pdone
	mov r6, r9
	shli r6, r6, 3
	add r6, r6, r10
	load r12, [r6]
	cmp r12, r7
	jae wl_qs_noswap
	mov r13, r8
	shli r13, r13, 3
	add r13, r13, r10
	load r0, [r13]
	store [r13], r12
	store [r6], r0
	addi r8, r8, 1
wl_qs_noswap:
	addi r9, r9, 1
	jmp wl_qs_part
wl_qs_pdone:
	mov r6, r8             ; swap a[p], a[hi]
	shli r6, r6, 3
	add r6, r6, r10
	load r12, [r6]
	mov r13, r2
	shli r13, r13, 3
	add r13, r13, r10
	load r0, [r13]
	store [r6], r0
	store [r13], r12
	push r8
	mov r2, r8             ; left: qsort(lo, p-1)
	subi r2, r2, 1
	call wl_qsort
	pop r8
	pop r2
	pop r0                 ; discard saved lo
	mov r1, r8             ; right: qsort(p+1, hi)
	addi r1, r1, 1
	call wl_qsort
	ret
.data
.align 64
wl_qs_arr: .space %d
`, n, 8*n)
	return Workload{Name: "qsort", Asm: asm, ref: func() uint64 { return refQsort(n) }}
}

// CRC32 runs the bitwise (table-less) CRC-32 over an LCG byte stream.
func CRC32(n int) Workload {
	asm := fmt.Sprintf(`
workload_main:
	movi r3, 0xFFFFFFFF    ; crc
	movi r4, 123456789     ; lcg
	movi r5, %d
wl_crc_loop:
	movi r6, 1103515245
	mul r4, r4, r6
	addi r4, r4, 12345
	mov r6, r4
	shri r6, r6, 33
	movi r7, 255
	and r6, r6, r7
	xor r3, r3, r6
	movi r7, 8
wl_crc_bit:
	mov r8, r3
	andi r8, r8, 1
	shri r3, r3, 1
	cmpi r8, 0
	je wl_crc_nox
	movi r8, 0xEDB88320
	xor r3, r3, r8
wl_crc_nox:
	subi r7, r7, 1
	cmpi r7, 0
	jne wl_crc_bit
	subi r5, r5, 1
	cmpi r5, 0
	jne wl_crc_loop
	mov r1, r3
	call rt_putint
	ret
`, n)
	return Workload{Name: "crc32", Asm: asm, ref: func() uint64 { return refCRC32(n) }}
}

// Dijkstra runs O(V^2) single-source shortest paths on a 16-node dense
// graph, `passes` times, accumulating the distance sums.
func Dijkstra(passes int) Workload {
	asm := fmt.Sprintf(`
workload_main:
	push bp
	movi r13, %d           ; passes
	movi r2, 0
	movi r0, wl_dj_acc
	store [r0], r2
wl_dj_pass:
	movi r3, 0             ; adjacency: w[idx] = ((idx*2654435761)>>20 & 255) + 1
	movi r10, wl_dj_adj
wl_dj_fill:
	movi r5, 2654435761
	mul r5, r5, r3
	shri r5, r5, 20
	movi r6, 255
	and r5, r5, r6
	addi r5, r5, 1
	mov r6, r3
	shli r6, r6, 3
	add r6, r6, r10
	store [r6], r5
	addi r3, r3, 1
	cmpi r3, 256
	jb wl_dj_fill
	movi r3, 0
	movi r11, wl_dj_dist
	movi r12, wl_dj_vis
wl_dj_init:
	movi r5, 1000000000
	mov r6, r3
	shli r6, r6, 3
	add r6, r6, r11
	store [r6], r5
	mov r6, r3
	shli r6, r6, 3
	add r6, r6, r12
	movi r5, 0
	store [r6], r5
	addi r3, r3, 1
	cmpi r3, 16
	jb wl_dj_init
	movi r5, 0
	store [r11], r5
	movi r9, 0
wl_dj_iter:
	movi r7, 16            ; u = none
	movi r8, 2000000000    ; best
	movi r3, 0
wl_dj_findmin:
	mov r6, r3
	shli r6, r6, 3
	add r6, r6, r12
	load r5, [r6]
	cmpi r5, 0
	jne wl_dj_fm_next
	mov r6, r3
	shli r6, r6, 3
	add r6, r6, r11
	load r5, [r6]
	cmp r5, r8
	jae wl_dj_fm_next
	mov r8, r5
	mov r7, r3
wl_dj_fm_next:
	addi r3, r3, 1
	cmpi r3, 16
	jb wl_dj_findmin
	cmpi r7, 16
	je wl_dj_iter_done
	mov r6, r7
	shli r6, r6, 3
	add r6, r6, r12
	movi r5, 1
	store [r6], r5
	movi r3, 0
wl_dj_relax:
	mov r6, r7
	shli r6, r6, 4
	add r6, r6, r3
	shli r6, r6, 3
	add r6, r6, r10
	load r5, [r6]
	add r5, r5, r8
	mov r6, r3
	shli r6, r6, 3
	add r6, r6, r11
	load r4, [r6]
	cmp r5, r4
	jae wl_dj_no
	store [r6], r5
wl_dj_no:
	addi r3, r3, 1
	cmpi r3, 16
	jb wl_dj_relax
	addi r9, r9, 1
	cmpi r9, 16
	jb wl_dj_iter
wl_dj_iter_done:
	movi r3, 0
	movi r4, 0
wl_dj_sum:
	mov r6, r3
	shli r6, r6, 3
	add r6, r6, r11
	load r5, [r6]
	add r4, r4, r5
	addi r3, r3, 1
	cmpi r3, 16
	jb wl_dj_sum
	movi r0, wl_dj_acc
	load r5, [r0]
	add r5, r5, r4
	store [r0], r5
	subi r13, r13, 1
	cmpi r13, 0
	jne wl_dj_pass
	movi r0, wl_dj_acc
	load r1, [r0]
	call rt_putint
	pop bp
	ret
.data
.align 64
wl_dj_adj: .space 2048
.align 64
wl_dj_dist: .space 128
.align 64
wl_dj_vis: .space 128
.align 64
wl_dj_acc: .word 0
`, passes)
	return Workload{Name: "dijkstra", Asm: asm, ref: func() uint64 { return refDijkstra(passes) }}
}

// StringSearch generates an LCG text over a 4-letter alphabet and counts
// naive occurrences of the pattern "abac".
func StringSearch(n int) Workload {
	asm := fmt.Sprintf(`
workload_main:
	movi r3, 0
	movi r4, 42
	movi r10, wl_ss_text
	movi r11, %d
wl_ss_gen:
	movi r6, 1103515245
	mul r4, r4, r6
	addi r4, r4, 12345
	mov r6, r4
	shri r6, r6, 16
	modi r6, r6, 4
	addi r6, r6, 'a'
	mov r7, r3
	add r7, r7, r10
	storeb [r7], r6
	addi r3, r3, 1
	cmp r3, r11
	jb wl_ss_gen
	movi r3, 0             ; pos
	movi r8, 0             ; count
	mov r9, r11
	subi r9, r9, 4
wl_ss_outer:
	cmp r3, r9
	ja wl_ss_done
	movi r5, 0
wl_ss_inner:
	cmpi r5, 4
	je wl_ss_hit
	mov r6, r3
	add r6, r6, r5
	add r6, r6, r10
	loadb r7, [r6]
	movi r12, wl_ss_pat
	add r12, r12, r5
	loadb r12, [r12]
	cmp r7, r12
	jne wl_ss_miss
	addi r5, r5, 1
	jmp wl_ss_inner
wl_ss_hit:
	addi r8, r8, 1
wl_ss_miss:
	addi r3, r3, 1
	jmp wl_ss_outer
wl_ss_done:
	mov r1, r8
	call rt_putint
	ret
.data
wl_ss_pat: .ascii "abac"
.align 64
wl_ss_text: .space %d
`, n, n+8)
	return Workload{Name: "stringsearch", Asm: asm, ref: func() uint64 { return refStringSearch(n) }}
}

func putint(v uint64) string { return fmt.Sprintf("%d\n", v) }
