package ad

import "math"

// expConsts is the constant table of vexpFMA and lstmCellAVX2: the
// constants of math.Exp's amd64 assembly, then those of tanhExp, each
// pre-broadcast to a 4-lane row so the kernels read them as plain m256
// operands. Row order is fixed by the kernels' 32-byte offsets. The
// literals are the Go sources' own, so they round to the same doubles;
// the exponent bias and the two masks are integers carried through
// Float64frombits.
var expConsts = buildExpConsts()

// tanhMaxLog is math.tanh's saturation constant log(2**127); |x| above
// half of it is ±1.
const tanhMaxLog = 8.8029691931113054295988e+01

func buildExpConsts() *[26 * 4]float64 {
	vals := [26]float64{
		-708, 709, // the exp kernel's range: 2^n stays a normal double
		1.4426950408889634073599246810018920,                  // log2(e)
		0.69314718055966295651160180568695068359375,           // ln2, upper half
		0.28235290563031577122588448175013436025525412068e-12, // ln2, lower half
		0.0625,
		2.4801587301587301587e-5, // 1/8!
		1.9841269841269841270e-4, // 1/7!
		1.3888888888888888889e-3, // 1/6!
		8.3333333333333333333e-3, // 1/5!
		4.1666666666666666667e-2, // 1/4!
		1.6666666666666666667e-1, // 1/3!
		0.5,
		1,
		2,
		math.Float64frombits(1023), // exponent bias, read as a qword
		// tanhExp's rows, from offset 512.
		math.Float64frombits(1<<63 - 1), // |x| mask
		math.Float64frombits(1 << 63),   // sign mask
		0.625,                           // below: the rational form
		0.5 * tanhMaxLog,                // above: ±1
		tanhP[0], tanhP[1], tanhP[2],
		tanhQ[0], tanhQ[1], tanhQ[2],
	}
	var t [26 * 4]float64
	for i, v := range vals {
		for l := 0; l < 4; l++ {
			t[i*4+l] = v
		}
	}
	return &t
}

// expv fills o[i] = math.Exp(x[i]), bit for bit. On hosts with AVX2 and
// FMA — where math.Exp itself takes its FMA path — four lanes run at a
// time through vexpFMA; a chunk the kernel declines (a lane outside its
// range, ±Inf or NaN) and the n%4 tail run through math.Exp itself. The
// kernel writes a chunk only after checking every lane of it, so o may
// alias x.
func expv(o, x []float64) {
	o = o[:len(x)]
	i := 0
	if useFMA {
		for n := len(x) &^ 3; i < n; {
			i += vexpFMA(&o[i], &x[i], n-i, expConsts)
			if i < n {
				for j := i; j < i+4; j++ {
					o[j] = math.Exp(x[j])
				}
				i += 4
			}
		}
	}
	for ; i < len(x); i++ {
		o[i] = math.Exp(x[i])
	}
}

// tanhP and tanhQ are the rational approximation's coefficients in
// Go's math.tanh (Cephes).
var tanhP = [...]float64{
	-9.64399179425052238628e-1,
	-9.92877231001918586564e1,
	-1.61468768441708447952e3,
}
var tanhQ = [...]float64{
	1.12811678491632931402e2,
	2.23548839060100448583e3,
	4.84406305325125486048e3,
}

// tanhExp is Go's pure-Go math.tanh (Cephes) with its one call to
// Exp(2|x|) taken as the argument e2, so callers can batch those
// exponentials through expv: tanhExp(x, math.Exp(2*math.Abs(x))) equals
// math.Tanh(x) bit for bit (TestTanhExpMatchesMathTanh) on every port
// whose math.Tanh is that Go code, which is all but s390x. e2 is read
// only when 0.625 <= |x| <= 44.01.
func tanhExp(x, e2 float64) float64 {
	z := math.Abs(x)
	switch {
	case z > 0.5*tanhMaxLog:
		if x < 0 {
			return -1
		}
		return 1
	case z >= 0.625:
		z = 1 - 2/(e2+1)
		if x < 0 {
			z = -z
		}
	default:
		if x == 0 {
			return x
		}
		s := x * x
		z = x + x*s*((tanhP[0]*s+tanhP[1])*s+tanhP[2])/(((s+tanhQ[0])*s+tanhQ[1])*s+tanhQ[2])
	}
	return z
}
