package mibench

import (
	"fmt"
	"math"
	"strings"
)

// fftN is the FFT size (radix-2, power of two).
const fftN = 64

// fftQ is the fixed-point scale (Q16).
const fftQ = 16

// FFT is the MiBench telecomm FFT kernel: an iterative radix-2
// decimation-in-time transform in Q16 fixed point over a 64-point
// LCG-generated signal, repeated `passes` times. Twiddle factors are
// precomputed by the generator and baked into the data section, like the
// lookup tables a C implementation would carry.
func FFT(passes int) Workload {
	// Twiddle table: W_64^j = exp(-2*pi*i*j/64), j in [0, 32).
	var wre, wim [fftN / 2]int64
	for j := 0; j < fftN/2; j++ {
		ang := -2 * math.Pi * float64(j) / fftN
		wre[j] = int64(math.Round(math.Cos(ang) * (1 << fftQ)))
		wim[j] = int64(math.Round(math.Sin(ang) * (1 << fftQ)))
	}
	emit := func(vals []int64) string {
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = fmt.Sprintf("%d", v)
		}
		return strings.Join(parts, ", ")
	}

	asm := fmt.Sprintf(`
workload_main:
	push bp
	movi r13, %d            ; passes
	movi r2, 0
	movi r0, wl_fft_acc
	store [r0], r2
wl_fft_pass:
	; generate input: re[i] = ((lcg>>16) & 0xFFFF) - 32768 in Q0, im = 0
	movi r3, 0
	movi r4, 20406
	movi r10, wl_fft_re
	movi r11, wl_fft_im
wl_fft_gen:
	movi r6, 6364136223846793005
	mul r4, r4, r6
	movi r6, 1442695040888963407
	add r4, r4, r6
	mov r6, r4
	shri r6, r6, 16
	movi r7, 0xFFFF
	and r6, r6, r7
	subi r6, r6, 32768
	mov r7, r3
	shli r7, r7, 3
	add r7, r7, r10
	store [r7], r6
	mov r7, r3
	shli r7, r7, 3
	add r7, r7, r11
	movi r6, 0
	store [r7], r6
	addi r3, r3, 1
	cmpi r3, %d
	jb wl_fft_gen
	; bit-reversal permutation (6-bit indices)
	movi r3, 0
wl_fft_br:
	; r5 = reverse6(r3)
	movi r5, 0
	movi r6, 0              ; bit counter
	mov r7, r3
wl_fft_rbit:
	shli r5, r5, 1
	mov r8, r7
	andi r8, r8, 1
	or r5, r5, r8
	shri r7, r7, 1
	addi r6, r6, 1
	cmpi r6, 6
	jb wl_fft_rbit
	; if r3 < r5 swap re[r3],re[r5] and im[r3],im[r5]
	cmp r3, r5
	jae wl_fft_noswap
	mov r7, r3
	shli r7, r7, 3
	add r7, r7, r10
	mov r8, r5
	shli r8, r8, 3
	add r8, r8, r10
	load r9, [r7]
	load r12, [r8]
	store [r7], r12
	store [r8], r9
	mov r7, r3
	shli r7, r7, 3
	add r7, r7, r11
	mov r8, r5
	shli r8, r8, 3
	add r8, r8, r11
	load r9, [r7]
	load r12, [r8]
	store [r7], r12
	store [r8], r9
wl_fft_noswap:
	addi r3, r3, 1
	cmpi r3, %d
	jb wl_fft_br
	; stages: len = 2, 4, ..., 64
	movi r9, 2              ; len
wl_fft_stage:
	movi r3, 0              ; block start i
wl_fft_block:
	movi r5, 0              ; j within half-block
wl_fft_bfly:
	; twiddle index = j * (N/len); half = len/2
	movi r6, %d
	mul r6, r6, r5
	mov r7, r9
	shri r7, r7, 1          ; half
	mov r8, r6
	div r8, r8, r9          ; j*N/len  (N=64: idx = j*64/len)
	; load w
	mov r6, r8
	shli r6, r6, 3
	movi r12, wl_fft_wre
	add r12, r12, r6
	load r12, [r12]         ; wre
	movi r0, wl_fft_wim
	add r0, r0, r6
	load r0, [r0]           ; wim
	; a = i+j, b = i+j+half
	mov r6, r3
	add r6, r6, r5
	mov r8, r6
	add r8, r8, r7
	; load b
	mov r1, r8
	shli r1, r1, 3
	add r1, r1, r10
	load r2, [r1]           ; b_re
	mov r1, r8
	shli r1, r1, 3
	add r1, r1, r11
	load r4, [r1]           ; b_im
	; t_re = (wre*b_re - wim*b_im) >> Q   (arithmetic shift)
	mul r2, r2, r12
	mul r4, r4, r0
	sub r2, r2, r4          ; clobbers r2 with products
	movi r1, %d
	sar r2, r2, r1          ; t_re
	; recompute b_im product path for t_im = (wre*b_im + wim*b_re) >> Q
	mov r1, r8
	shli r1, r1, 3
	add r1, r1, r11
	load r4, [r1]           ; b_im again
	mul r4, r4, r12
	mov r1, r8
	shli r1, r1, 3
	add r1, r1, r10
	load r12, [r1]          ; b_re again (wre no longer needed)
	mul r12, r12, r0
	add r4, r4, r12
	movi r1, %d
	sar r4, r4, r1          ; t_im
	; load a
	mov r1, r6
	shli r1, r1, 3
	add r1, r1, r10
	load r12, [r1]          ; a_re
	mov r0, r6
	shli r0, r0, 3
	add r0, r0, r11
	load r0, [r0]           ; a_im -> r0
	; b = a - t ; a = a + t
	mov r1, r8
	shli r1, r1, 3
	add r1, r1, r10
	sub r8, r12, r2         ; a_re - t_re
	store [r1], r8
	add r12, r12, r2        ; a_re + t_re
	mov r1, r6
	shli r1, r1, 3
	add r1, r1, r10
	store [r1], r12
	; im lane: need b index again = a index + half
	mov r1, r6
	add r1, r1, r7
	shli r1, r1, 3
	add r1, r1, r11
	sub r8, r0, r4
	store [r1], r8
	add r0, r0, r4
	mov r1, r6
	shli r1, r1, 3
	add r1, r1, r11
	store [r1], r0
	addi r5, r5, 1
	cmp r5, r7
	jb wl_fft_bfly
	add r3, r3, r9
	cmpi r3, %d
	jb wl_fft_block
	shli r9, r9, 1
	cmpi r9, %d
	jbe wl_fft_stage
	; checksum: xor of (re[i] + 3*im[i]) over all bins
	movi r3, 0
	movi r5, 0
wl_fft_sum:
	mov r7, r3
	shli r7, r7, 3
	add r7, r7, r10
	load r6, [r7]
	mov r7, r3
	shli r7, r7, 3
	add r7, r7, r11
	load r8, [r7]
	muli r8, r8, 3
	add r6, r6, r8
	xor r5, r5, r6
	addi r3, r3, 1
	cmpi r3, %d
	jb wl_fft_sum
	movi r0, wl_fft_acc
	load r6, [r0]
	add r6, r6, r5
	store [r0], r6
	subi r13, r13, 1
	cmpi r13, 0
	jne wl_fft_pass
	movi r0, wl_fft_acc
	load r1, [r0]
	call rt_putint
	pop bp
	ret
.data
.align 64
wl_fft_re: .space %d
.align 64
wl_fft_im: .space %d
.align 64
wl_fft_wre: .word %s
.align 64
wl_fft_wim: .word %s
wl_fft_acc: .word 0
`, passes, fftN, fftN, fftN, fftQ, fftQ, fftN, fftN, fftN, 8*fftN, 8*fftN,
		emit(wre[:]), emit(wim[:]))
	return Workload{Name: "fft", Asm: asm, ref: func() uint64 { return refFFT(passes) }}
}

// refFFT mirrors the assembly transform exactly (same fixed-point
// rounding, same checksum).
func refFFT(passes int) uint64 {
	var wre, wim [fftN / 2]int64
	for j := 0; j < fftN/2; j++ {
		ang := -2 * math.Pi * float64(j) / fftN
		wre[j] = int64(math.Round(math.Cos(ang) * (1 << fftQ)))
		wim[j] = int64(math.Round(math.Sin(ang) * (1 << fftQ)))
	}
	var acc uint64
	for p := 0; p < passes; p++ {
		lcg := uint64(20406) // reseeded per pass, as the assembly does
		var re, im [fftN]int64
		for i := 0; i < fftN; i++ {
			lcg = lcg*6364136223846793005 + 1442695040888963407
			re[i] = int64((lcg>>16)&0xFFFF) - 32768
		}
		// Bit reversal (6 bits).
		for i := 0; i < fftN; i++ {
			r := 0
			v := i
			for b := 0; b < 6; b++ {
				r = (r << 1) | (v & 1)
				v >>= 1
			}
			if i < r {
				re[i], re[r] = re[r], re[i]
				im[i], im[r] = im[r], im[i]
			}
		}
		for length := 2; length <= fftN; length <<= 1 {
			half := length / 2
			for i := 0; i < fftN; i += length {
				for j := 0; j < half; j++ {
					idx := j * fftN / length
					bRe, bIm := re[i+j+half], im[i+j+half]
					tRe := (wre[idx]*bRe - wim[idx]*bIm) >> fftQ
					tIm := (wre[idx]*bIm + wim[idx]*bRe) >> fftQ
					aRe, aIm := re[i+j], im[i+j]
					re[i+j+half] = aRe - tRe
					im[i+j+half] = aIm - tIm
					re[i+j] = aRe + tRe
					im[i+j] = aIm + tIm
				}
			}
		}
		var sum uint64
		for i := 0; i < fftN; i++ {
			sum ^= uint64(re[i] + 3*im[i])
		}
		acc += sum
	}
	return acc
}
