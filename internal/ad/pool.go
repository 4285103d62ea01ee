package ad

import "math/bits"

// Pool recycles the storage of forward-only values, keyed by size class
// (sizeClass): a released buffer serves any later value whose element
// count rounds to the same class. Beam search allocates the same tensor
// shapes at every decode step; drawing them from a Pool and releasing
// them between steps keeps a Predict call's allocation footprint
// bounded by one step's working set instead of the whole search
// (maxLen × width steps).
//
// float64 and float32 storage are recycled through separate free lists
// (a value is one or the other, discriminated by which slice is
// non-empty), so a pool shared across engine tiers never hands f32
// storage to an f64 tape or vice versa.
//
// A Pool is not safe for concurrent use: give each goroutine its own
// (Model.Predict and the parallel evaluators do this internally).
type Pool struct {
	// free and free32 are the released values, indexed by the ordinal
	// of their size class (classOrdinal).
	free   [][]*V
	free32 [][]*V
	// maxElems is the element count of the largest buffer ever drawn
	// from this pool — the high-water mark of the working set. Tests use
	// it to pin memory-footprint properties (e.g. that beam decoding's
	// attention working set is independent of beam width).
	maxElems int
	// maxBytes is the byte size of the largest value buffer ever drawn
	// (8 bytes/elem for float64, 4 for float32; gradient storage not
	// counted). Tests use it to pin that the f32 engine's working set is
	// half the f64 one for the same shapes.
	maxBytes int
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// MaxBufferElems returns the element count of the largest single buffer
// drawn from the pool since creation (recycled or fresh).
func (p *Pool) MaxBufferElems() int { return p.maxElems }

// MaxBufferBytes returns the byte size of the largest single value
// buffer drawn from the pool since creation, accounting for element
// width (float32 buffers count 4 bytes per element, float64 count 8).
func (p *Pool) MaxBufferBytes() int { return p.maxBytes }

// Poison overwrites every released buffer with x, in both precisions.
// Ops that write every element of their output draw recycled buffers
// without clearing them; a pool poisoned with NaN turns an op that reads
// storage it did not write into a visibly different result, which is
// how the tests check that contract.
func (p *Pool) Poison(x float64) {
	for _, vs := range p.free {
		for _, v := range vs {
			w := v.W[:cap(v.W)]
			for i := range w {
				w[i] = x
			}
		}
	}
	for _, vs := range p.free32 {
		for _, v := range vs {
			w := v.W32[:cap(v.W32)]
			for i := range w {
				w[i] = float32(x)
			}
		}
	}
}

// get returns an [r,c] value, reusing released storage of the same
// size class when available. The values are zero when zero is set;
// otherwise a recycled buffer keeps its last contents, for ops that
// overwrite every element. Values from get carry no gradient storage;
// forward tapes, which never run Backward, use them directly.
func (p *Pool) get(r, c int, zero bool) *V {
	n := r * c
	if n > p.maxElems {
		p.maxElems = n
	}
	if b := n * 8; b > p.maxBytes {
		p.maxBytes = b
	}
	if v := p.take(n, zero); v != nil {
		v.R, v.C = r, c
		return v
	}
	return &V{R: r, C: c, W: make([]float64, n, sizeClass(n))}
}

// get32 is get for float32-backed values on single-precision forward
// tapes, recycled through the pool's separate f32 free list.
func (p *Pool) get32(r, c int, zero bool) *V {
	n := r * c
	if n > p.maxElems {
		p.maxElems = n
	}
	if b := n * 4; b > p.maxBytes {
		p.maxBytes = b
	}
	if v := p.take32(n, zero); v != nil {
		v.R, v.C = r, c
		return v
	}
	return &V{R: r, C: c, W32: make([]float32, n, sizeClass(n))}
}

// getGrad returns a zeroed [r,c] value with zeroed gradient storage, for
// pooled training tapes. A recycled value that last served a forward
// tape gains its gradient slice here; the pool is shared either way.
func (p *Pool) getGrad(r, c int) *V {
	n := r * c
	if n > p.maxElems {
		p.maxElems = n
	}
	if b := n * 8; b > p.maxBytes {
		p.maxBytes = b
	}
	v := p.take(n, true)
	if v == nil {
		v = &V{W: make([]float64, n, sizeClass(n))}
	}
	v.R, v.C = r, c
	if cap(v.G) < n {
		v.G = make([]float64, n, cap(v.W))
		return v
	}
	v.G = v.G[:n]
	for i := range v.G {
		v.G[i] = 0
	}
	return v
}

// take pops a free value of n's size class, resliced to n elements and
// zeroed if zero is set, or nil.
func (p *Pool) take(n int, zero bool) *V {
	v := pop(p.free, n)
	if v == nil {
		return nil
	}
	v.W = v.W[:n]
	if zero {
		clear(v.W)
	}
	return v
}

// take32 is take for float32 values.
func (p *Pool) take32(n int, zero bool) *V {
	v := pop(p.free32, n)
	if v == nil {
		return nil
	}
	v.W32 = v.W32[:n]
	if zero {
		clear(v.W32)
	}
	return v
}

// pop removes and returns the last value on the free list of n's size
// class, or nil.
func pop(free [][]*V, n int) *V {
	o := classOrdinal(n)
	if o >= len(free) || len(free[o]) == 0 {
		return nil
	}
	vs := free[o]
	v := vs[len(vs)-1]
	vs[len(vs)-1] = nil
	free[o] = vs[:len(vs)-1]
	return v
}

// push appends v to the free list of size class cls, growing the list
// of classes as needed.
func push(free [][]*V, cls int, v *V) [][]*V {
	o := classOrdinal(cls)
	for len(free) <= o {
		free = append(free, nil)
	}
	free[o] = append(free[o], v)
	return free
}

// put returns a value's storage to the pool. The caller must not use v
// after releasing it. float32-only values go to the f32 free list;
// everything else is keyed by its float64 storage, whose capacity is
// its size class.
func (p *Pool) put(v *V) {
	if len(v.W) == 0 {
		if len(v.W32) == 0 {
			return
		}
		p.free32 = push(p.free32, cap(v.W32), v)
		return
	}
	p.free = push(p.free, cap(v.W), v)
}

// sizeClass rounds an element count up to the pool's size classes,
// four per power of two, so a buffer is under 25% larger than its
// value. Many shapes follow the input — the encoder's [S*T,H] operand
// matrix and the decoder's [L,T] attention rows grow with the padded
// source length — and exact-size free lists would pin one buffer per
// length ever seen; with classes, a pool retains a bounded set.
func sizeClass(n int) int {
	if n <= 8 {
		return n
	}
	step := 1 << (bits.Len(uint(n-1)) - 3)
	return (n + step - 1) &^ (step - 1)
}

// classOrdinal numbers the size classes densely from zero: 0–8 are
// themselves, then four per power of two, so n's class and the class
// itself share an ordinal.
func classOrdinal(n int) int {
	if n <= 8 {
		return n
	}
	l := bits.Len(uint(n - 1))
	m := (n + 1<<(l-3) - 1) >> (l - 3) // the class in steps: 5..8
	return 4*l + m - 12
}
