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
	free   map[int][]*V
	free32 map[int][]*V
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
func NewPool() *Pool { return &Pool{free: map[int][]*V{}, free32: map[int][]*V{}} }

// MaxBufferElems returns the element count of the largest single buffer
// drawn from the pool since creation (recycled or fresh).
func (p *Pool) MaxBufferElems() int { return p.maxElems }

// MaxBufferBytes returns the byte size of the largest single value
// buffer drawn from the pool since creation, accounting for element
// width (float32 buffers count 4 bytes per element, float64 count 8).
func (p *Pool) MaxBufferBytes() int { return p.maxBytes }

// get returns a zeroed [r,c] value, reusing released storage of the same
// element count when available. Values from get carry no gradient
// storage; forward tapes, which never run Backward, use them directly.
func (p *Pool) get(r, c int) *V {
	n := r * c
	if n > p.maxElems {
		p.maxElems = n
	}
	if b := n * 8; b > p.maxBytes {
		p.maxBytes = b
	}
	if v := p.take(n); v != nil {
		v.R, v.C = r, c
		return v
	}
	return &V{R: r, C: c, W: make([]float64, n, sizeClass(n))}
}

// get32 returns a zeroed [r,c] float32-backed value for single-precision
// forward tapes, recycled through the pool's separate f32 free list.
func (p *Pool) get32(r, c int) *V {
	n := r * c
	if n > p.maxElems {
		p.maxElems = n
	}
	if b := n * 4; b > p.maxBytes {
		p.maxBytes = b
	}
	if v := p.take32(n); v != nil {
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
	v := p.take(n)
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
// zeroed, or nil.
func (p *Pool) take(n int) *V {
	cls := sizeClass(n)
	vs := p.free[cls]
	if len(vs) == 0 {
		return nil
	}
	v := vs[len(vs)-1]
	p.free[cls] = vs[:len(vs)-1]
	v.W = v.W[:n]
	clear(v.W)
	return v
}

// take32 is take for float32 values.
func (p *Pool) take32(n int) *V {
	cls := sizeClass(n)
	vs := p.free32[cls]
	if len(vs) == 0 {
		return nil
	}
	v := vs[len(vs)-1]
	p.free32[cls] = vs[:len(vs)-1]
	v.W32 = v.W32[:n]
	clear(v.W32)
	return v
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
		p.free32[cap(v.W32)] = append(p.free32[cap(v.W32)], v)
		return
	}
	p.free[cap(v.W)] = append(p.free[cap(v.W)], v)
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
