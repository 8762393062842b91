package mibench

import "fmt"

// Backgrounds returns the synthetic stand-ins for the paper's extra
// benign applications ("we profile applications like browsers, text
// editors, etc., and train the HID to emulate a practical situation"):
//
//   - browser_stream: a cache-busting streaming walk whose per-interval
//     miss counts overlap the attack's probe scans in the
//     one-dimensional cache-miss feature (which is why feature size 1
//     is insufficient, Fig. 4);
//   - editor: bursty scan/replace rounds separated by idle think-time
//     loops, producing low-magnitude intervals like an interactive app.
func Backgrounds() []Workload {
	return []Workload{
		Stream(6),
		Editor(8),
		Chase("chase_fast", 60_000, 0),
		Chase("chase_med", 45_000, 30),
		Chase("chase_slow", 30_000, 80),
	}
}

// AllWithBackgrounds returns every host workload plus the background
// applications — the full benign profiling scope.
func AllWithBackgrounds() []Workload {
	return append(All(), Backgrounds()...)
}

// Stream walks a 512 KiB buffer (past L2 capacity) with a 320-byte
// stride, read-modify-write, `iters` times: a constant stream of cache
// misses with few branches, like media/render threads.
func Stream(iters int) Workload {
	w := StreamStride("browser_stream", iters, 320)
	return w
}

// StreamStride is Stream with a configurable stride: stride 64 (one
// line) is the pattern a next-line prefetcher accelerates; 320 skips
// lines and defeats it.
func StreamStride(name string, iters int, stride int) Workload {
	const bufSize = 512 << 10
	asm := fmt.Sprintf(`
workload_main:
	movi r3, 0
	movi r10, wl_st_buf
	movi r11, %d
wl_st_outer:
	movi r4, 0
wl_st_inner:
	mov r5, r4
	add r5, r5, r10
	load r6, [r5]
	addi r6, r6, 1
	store [r5], r6
	addi r4, r4, %d
	cmpi r4, %d
	jb wl_st_inner
	addi r3, r3, 1
	cmp r3, r11
	jb wl_st_outer
	mov r1, r3
	call rt_putint
	ret
.data
.align 64
wl_st_buf: .space %d
`, iters, stride, bufSize, bufSize)
	return Workload{Name: name, Asm: asm, ref: func() uint64 { return uint64(iters) }}
}

// Editor alternates text-buffer scan/replace bursts with idle loops and
// a single insertion per round.
func Editor(rounds int) Workload {
	asm := fmt.Sprintf(`
workload_main:
	movi r3, 0             ; round
	movi r4, 777           ; lcg
	movi r10, wl_ed_buf
	movi r11, %d
	movi r5, 0
wl_ed_init:
	movi r6, 1103515245
	mul r4, r4, r6
	addi r4, r4, 12345
	mov r6, r4
	shri r6, r6, 16
	modi r6, r6, 26
	addi r6, r6, 'a'
	mov r7, r5
	add r7, r7, r10
	storeb [r7], r6
	addi r5, r5, 1
	cmpi r5, 4096
	jb wl_ed_init
wl_ed_round:
	movi r5, 0             ; scan for 'e', replacing hits with 'x'
	movi r8, 0
wl_ed_scan:
	mov r7, r5
	add r7, r7, r10
	loadb r6, [r7]
	cmpi r6, 'e'
	jne wl_ed_nohit
	addi r8, r8, 1
	movi r6, 'x'
	storeb [r7], r6
wl_ed_nohit:
	addi r5, r5, 1
	cmpi r5, 4096
	jb wl_ed_scan
	movi r0, wl_ed_acc
	load r6, [r0]
	add r6, r6, r8
	store [r0], r6
	movi r5, 20000         ; idle think-time
wl_ed_idle:
	subi r5, r5, 1
	cmpi r5, 0
	jne wl_ed_idle
	mov r6, r3             ; one insertion per round
	muli r6, r6, 97
	modi r6, r6, 4096
	add r6, r6, r10
	movi r7, 'e'
	storeb [r6], r7
	addi r3, r3, 1
	cmp r3, r11
	jb wl_ed_round
	movi r0, wl_ed_acc
	load r1, [r0]
	call rt_putint
	ret
.data
wl_ed_acc: .word 0
.align 64
wl_ed_buf: .space 4096
`, rounds)
	return Workload{Name: "editor", Asm: asm, ref: func() uint64 { return refEditor(rounds) }}
}

// Chase is a serialized pointer chase over a 1 MiB table: nearly every
// load misses both cache levels, with one well-predicted branch per
// access. `delay` busy-wait iterations between steps tune the
// per-interval miss density; the three Backgrounds instances span the
// attack's own density band, which is what makes a single cache-miss
// feature insufficient (Fig. 4, size 1).
func Chase(name string, steps int, delay int64) Workload {
	delayAsm := ""
	if delay > 0 {
		delayAsm = fmt.Sprintf(`	movi r8, %d
wl_ch_delay:
	subi r8, r8, 1
	cmpi r8, 0
	jne wl_ch_delay
`, delay)
	}
	asm := fmt.Sprintf(`
workload_main:
	movi r3, 0
	movi r10, wl_ch_tab
wl_ch_init:
	movi r5, 2654435761
	mul r5, r5, r3
	addi r5, r5, 12345
	movi r6, 131071
	and r5, r5, r6
	mov r7, r3
	shli r7, r7, 3
	add r7, r7, r10
	store [r7], r5
	addi r3, r3, 1
	cmpi r3, 131072
	jb wl_ch_init
	movi r4, 0
	movi r5, %d
wl_ch_loop:
`+delayAsm+`	mov r7, r4
	shli r7, r7, 3
	add r7, r7, r10
	load r4, [r7]
	subi r5, r5, 1
	cmpi r5, 0
	jne wl_ch_loop
	mov r1, r4
	call rt_putint
	ret
.data
.align 64
wl_ch_tab: .space 1048576
`, steps)
	return Workload{Name: name, Asm: asm, ref: func() uint64 { return refChase(steps) }}
}

// refChase mirrors the pointer-chase kernel. Table entry i holds
// (i*2654435761 + 12345) & (size-1), so following the chain applies that
// recurrence to the index; no table is built.
func refChase(steps int) uint64 {
	const size = 131072
	idx := uint64(0)
	for s := 0; s < steps; s++ {
		idx = (idx*2654435761 + 12345) & (size - 1)
	}
	return idx
}

// refEditor mirrors the editor kernel.
func refEditor(rounds int) uint64 {
	lcg := uint64(777)
	buf := make([]byte, 4096)
	for i := range buf {
		lcg = lcg*1103515245 + 12345
		buf[i] = byte('a' + (lcg>>16)%26)
	}
	var acc uint64
	for r := 0; r < rounds; r++ {
		for i, b := range buf {
			if b == 'e' {
				acc++
				buf[i] = 'x'
			}
		}
		buf[(r*97)%4096] = 'e'
	}
	return acc
}
