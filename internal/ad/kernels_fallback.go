//go:build !amd64

package ad

// Non-amd64 builds run the pure-Go kernels only.

const avxMinC = 8

var useAVX2 = false

var useFMA = false

func bandAVX2(o, a, b *float64, rs, ps, c, k, rows int) {
	panic("ad: bandAVX2 called without AVX2 support")
}

func axpyAVX2(o, b *float64, s float64, n int) {
	panic("ad: axpyAVX2 called without AVX2 support")
}

func ntPanelAVX2(s *[16]float64, a0, a1, a2, a3, panel *float64, k int) {
	panic("ad: ntPanelAVX2 called without AVX2 support")
}

func vexpFMA(o, x *float64, n int, consts *[104]float64) int {
	panic("ad: vexpFMA called without FMA support")
}

func lstmCellAVX2(h, c, x, w, b, cp *float64, n, H int, consts *[104]float64) bool {
	panic("ad: lstmCellAVX2 called without FMA support")
}

func band2pFMA32(o0, o1, o2, o3, bp, bq *float32, av *[8]float32, n int) {
	panic("ad: band2pFMA32 called without FMA support")
}

func axpyFMA32(o, b *float32, s float32, n int) {
	panic("ad: axpyFMA32 called without FMA support")
}

func dotFMA32(a, b *float32, n int) float32 {
	panic("ad: dotFMA32 called without FMA support")
}

func vexpFMA32(o, x, consts *float32, n int) {
	panic("ad: vexpFMA32 called without FMA support")
}

func vaddFMA32(o, a, b *float32, n int) {
	panic("ad: vaddFMA32 called without FMA support")
}
