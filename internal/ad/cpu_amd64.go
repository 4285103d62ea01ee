//go:build amd64

package ad

// cpuid executes CPUID with the given leaf/subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the extended-state enable mask.
func xgetbv() (eax, edx uint32)

// useAVX2 gates the vector micro-kernels in kernels_amd64.s. It is a
// variable (not a constant) so the kernel oracle tests can force the
// pure-Go path on AVX2 hosts and compare the two bitwise.
var useAVX2 = detectAVX2()

// useFMA gates the fused-multiply-add float32 inference kernels in
// kernels_amd64.s (band2pFMA32, axpyFMA32, dotFMA32, ...). FMA uses the
// same YMM state as AVX2, so it is only probed once detectAVX2 passed.
// Also a variable so the f32 kernel tests can force the pure-Go mirrors
// and compare them to the assembly.
var useFMA = useAVX2 && detectFMA()

// detectFMA reports whether the host supports FMA3 (CPUID leaf 1 ECX
// bit 12).
func detectFMA() bool {
	_, _, ecx1, _ := cpuid(1, 0)
	const fma = 1 << 12
	return ecx1&fma != 0
}

// detectAVX2 reports whether the host supports AVX2 and the OS has
// enabled YMM state saving (OSXSAVE + XCR0 bits 1 and 2).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}
