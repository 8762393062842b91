package mibench

import "fmt"

// susanDim is the square image edge length.
const susanDim = 32

// Susan is the MiBench automotive "susan"-style smoothing kernel: a 3x3
// box filter over an LCG-generated 32x32 byte image, repeated `passes`
// times with double buffering; the checksum sums the final pixels.
func Susan(passes int) Workload {
	asm := fmt.Sprintf(`
workload_main:
	push bp
	movi r3, 0             ; init image
	movi r4, 31337
	movi r10, wl_su_img
wl_su_gen:
	movi r6, 1103515245
	mul r4, r4, r6
	addi r4, r4, 12345
	mov r6, r4
	shri r6, r6, 16
	movi r7, 255
	and r6, r6, r7
	mov r7, r3
	add r7, r7, r10
	storeb [r7], r6
	addi r3, r3, 1
	cmpi r3, %d
	jb wl_su_gen
	movi r13, %d           ; passes
wl_su_pass:
	movi r11, wl_su_out
	movi r8, 1             ; y
wl_su_row:
	movi r9, 1             ; x
wl_su_col:
	; sum the 3x3 neighbourhood of (x, y)
	movi r5, 0             ; accumulator
	movi r6, 0             ; dy 0..2 (offset -1)
wl_su_dy:
	movi r7, 0             ; dx 0..2
wl_su_dx:
	mov r0, r8
	add r0, r0, r6
	subi r0, r0, 1         ; y + dy - 1
	muli r0, r0, %d
	add r0, r0, r9
	add r0, r0, r7
	subi r0, r0, 1         ; + x + dx - 1
	add r0, r0, r10
	loadb r1, [r0]
	add r5, r5, r1
	addi r7, r7, 1
	cmpi r7, 3
	jb wl_su_dx
	addi r6, r6, 1
	cmpi r6, 3
	jb wl_su_dy
	movi r1, 9
	div r5, r5, r1         ; box average
	mov r0, r8
	muli r0, r0, %d
	add r0, r0, r9
	add r0, r0, r11
	storeb [r0], r5
	addi r9, r9, 1
	cmpi r9, %d
	jb wl_su_col
	addi r8, r8, 1
	cmpi r8, %d
	jb wl_su_row
	; copy interior back (borders stay)
	movi r8, 1
wl_su_cpy_row:
	movi r9, 1
wl_su_cpy_col:
	mov r0, r8
	muli r0, r0, %d
	add r0, r0, r9
	mov r1, r0
	add r0, r0, r11
	loadb r5, [r0]
	add r1, r1, r10
	storeb [r1], r5
	addi r9, r9, 1
	cmpi r9, %d
	jb wl_su_cpy_col
	addi r8, r8, 1
	cmpi r8, %d
	jb wl_su_cpy_row
	subi r13, r13, 1
	cmpi r13, 0
	jne wl_su_pass
	; checksum: sum of all pixels
	movi r3, 0
	movi r5, 0
wl_su_sum:
	mov r7, r3
	add r7, r7, r10
	loadb r6, [r7]
	add r5, r5, r6
	addi r3, r3, 1
	cmpi r3, %d
	jb wl_su_sum
	mov r1, r5
	call rt_putint
	pop bp
	ret
.data
.align 64
wl_su_img: .space %d
.align 64
wl_su_out: .space %d
`, susanDim*susanDim, passes,
		susanDim, susanDim, susanDim-1, susanDim-1,
		susanDim, susanDim-1, susanDim-1,
		susanDim*susanDim, susanDim*susanDim, susanDim*susanDim)
	return Workload{Name: "susan", Asm: asm, ref: func() uint64 { return refSusan(passes) }}
}

// refSusan mirrors the stencil kernel.
func refSusan(passes int) uint64 {
	const d = susanDim
	img := make([]uint64, d*d)
	lcg := uint64(31337)
	for i := range img {
		lcg = lcg*1103515245 + 12345
		img[i] = (lcg >> 16) & 255
	}
	out := make([]uint64, d*d)
	for p := 0; p < passes; p++ {
		for y := 1; y < d-1; y++ {
			for x := 1; x < d-1; x++ {
				var sum uint64
				for dy := 0; dy < 3; dy++ {
					for dx := 0; dx < 3; dx++ {
						sum += img[(y+dy-1)*d+(x+dx-1)] & 255
					}
				}
				out[y*d+x] = sum / 9
			}
		}
		for y := 1; y < d-1; y++ {
			for x := 1; x < d-1; x++ {
				img[y*d+x] = out[y*d+x] & 255
			}
		}
	}
	var sum uint64
	for _, v := range img {
		sum += v & 255
	}
	return sum
}
