// Package quant implements per-matrix weight quantization for
// inference-only model export: float32 truncation and affine int8
// encodings with a round-trip binary serialization that travels
// alongside the full-precision gob checkpoint format. Quantization is
// lossy by design — the loader dequantizes into float32 storage and
// runs the f32 inference engine over the reconstructed weights — so the
// correctness story for anything built on this package is the
// accuracy-budget harness (internal/accbudget), not bitwise equality
// with the trained checkpoint.
package quant

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Mode selects a quantized element encoding.
type Mode string

const (
	// F32 stores each weight as the nearest float32: 2x smaller,
	// relative error bounded by 2^-24 per weight.
	F32 Mode = "f32"
	// Int8 stores each weight as an asymmetric affine int8 against a
	// per-matrix scale and zero point: 8x smaller, absolute error
	// bounded by ~1.5*Scale (scale/2 rounding plus at most one clamped
	// step at the range edges).
	Int8 Mode = "int8"
)

// ParseMode validates a -quantize flag value.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case F32, Int8:
		return Mode(s), nil
	}
	return "", fmt.Errorf("quant: unknown mode %q (want %q or %q)", s, F32, Int8)
}

// Matrix is one quantized weight matrix. Exactly one of F32/I8 is
// populated, matching Mode; Scale and Zero are meaningful for Int8 only
// (w ≈ (q - Zero) * Scale, Zero integral-valued).
type Matrix struct {
	Rows, Cols int
	Mode       Mode
	F32        []float32
	I8         []int8
	Scale      float64
	Zero       float64
}

// QuantizeMatrix encodes the row-major weights w (length rows*cols)
// under the given mode. All weights must be finite: quantization ranges
// are computed from the data, and a trained checkpoint never contains
// Inf/NaN — their presence indicates a corrupt model.
func QuantizeMatrix(rows, cols int, w []float64, mode Mode) (Matrix, error) {
	if rows < 0 || cols < 0 || len(w) != rows*cols {
		return Matrix{}, fmt.Errorf("quant: %dx%d matrix with %d weights", rows, cols, len(w))
	}
	for i, x := range w {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return Matrix{}, fmt.Errorf("quant: non-finite weight %g at %d", x, i)
		}
	}
	m := Matrix{Rows: rows, Cols: cols, Mode: mode}
	switch mode {
	case F32:
		m.F32 = make([]float32, len(w))
		for i, x := range w {
			m.F32[i] = float32(x)
		}
	case Int8:
		lo, hi := 0.0, 0.0
		for _, x := range w {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		scale := (hi - lo) / 255
		if scale == 0 {
			scale = 1 // constant-zero matrix: any scale round-trips exactly
		}
		zero := math.Round(-lo/scale) - 128
		m.Scale, m.Zero = scale, zero
		m.I8 = make([]int8, len(w))
		for i, x := range w {
			q := math.Round(x/scale) + zero
			if q < -128 {
				q = -128
			} else if q > 127 {
				q = 127
			}
			m.I8[i] = int8(q)
		}
	default:
		return Matrix{}, fmt.Errorf("quant: unknown mode %q", mode)
	}
	return m, nil
}

// Dequantize reconstructs the float64 weights into dst (allocated if
// nil or too short) and returns it.
func (m *Matrix) Dequantize(dst []float64) []float64 {
	n := m.Rows * m.Cols
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	switch m.Mode {
	case F32:
		for i, x := range m.F32 {
			dst[i] = float64(x)
		}
	case Int8:
		for i, q := range m.I8 {
			dst[i] = (float64(q) - m.Zero) * m.Scale
		}
	}
	return dst
}

// DequantizeF32 reconstructs the weights as float32 into dst (allocated
// if nil or too short) and returns it: the direct-load path for the f32
// inference engine. F32-mode payloads copy verbatim — they already are
// the float32 truncation — and Int8 reconstructs in float64 and rounds
// once, so every element equals float32 of the Dequantize result.
func (m *Matrix) DequantizeF32(dst []float32) []float32 {
	n := m.Rows * m.Cols
	if cap(dst) < n {
		dst = make([]float32, n)
	}
	dst = dst[:n]
	switch m.Mode {
	case F32:
		copy(dst, m.F32)
	case Int8:
		for i, q := range m.I8 {
			dst[i] = float32((float64(q) - m.Zero) * m.Scale)
		}
	}
	return dst
}

// MaxError bounds |w - Dequantize(QuantizeMatrix(w))| per element for
// an Int8 matrix, and the relative error for F32 (as a fraction of
// |w|; callers multiply by the weight magnitude).
func (m *Matrix) MaxError() float64 {
	if m.Mode == Int8 {
		return 1.5 * m.Scale
	}
	return 0x1p-24
}

// Binary serialization. Layout (all integers little-endian):
//
//	magic "SWQ1" | u32 count
//	per matrix:
//	  u8 mode (0 = f32, 1 = int8) | u32 rows | u32 cols
//	  int8: f64 scale | f64 zero | rows*cols bytes
//	  f32:  rows*cols * 4 bytes (IEEE-754 binary32 bits)
//
// Decoding validates every length against the remaining input before
// allocating, so a truncated or hostile header cannot trigger a large
// allocation, and rejects trailing garbage — DecodeMatrices composed
// with EncodeMatrices is the identity in both directions
// (FuzzQuantRoundTrip).

var magic = [4]byte{'S', 'W', 'Q', '1'}

const (
	modeF32  = 0
	modeInt8 = 1
	// maxDim caps rows/cols: generous for any model this repo trains,
	// and keeps rows*cols far from integer overflow on 32-bit ints.
	maxDim = 1 << 24
)

// EncodeMatrices serializes a quantized checkpoint.
func EncodeMatrices(ms []Matrix) []byte {
	size := 8
	for _, m := range ms {
		size += 9
		if m.Mode == Int8 {
			size += 16 + m.Rows*m.Cols
		} else {
			size += 4 * m.Rows * m.Cols
		}
	}
	out := make([]byte, 0, size)
	out = append(out, magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(ms)))
	for _, m := range ms {
		if m.Mode == Int8 {
			out = append(out, modeInt8)
		} else {
			out = append(out, modeF32)
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(m.Rows))
		out = binary.LittleEndian.AppendUint32(out, uint32(m.Cols))
		if m.Mode == Int8 {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(m.Scale))
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(m.Zero))
			for _, q := range m.I8 {
				out = append(out, byte(q))
			}
		} else {
			for _, x := range m.F32 {
				out = binary.LittleEndian.AppendUint32(out, math.Float32bits(x))
			}
		}
	}
	return out
}

// DecodeMatrices parses a quantized checkpoint produced by
// EncodeMatrices, validating structure, bounds, and parameter sanity.
func DecodeMatrices(data []byte) ([]Matrix, error) {
	if len(data) < 8 || [4]byte(data[:4]) != magic {
		return nil, fmt.Errorf("quant: bad magic")
	}
	count := binary.LittleEndian.Uint32(data[4:8])
	rest := data[8:]
	// A matrix needs at least 9 header bytes: cap count before trusting it.
	if uint64(count)*9 > uint64(len(rest)) {
		return nil, fmt.Errorf("quant: count %d exceeds input", count)
	}
	ms := make([]Matrix, 0, count)
	for mi := uint32(0); mi < count; mi++ {
		if len(rest) < 9 {
			return nil, fmt.Errorf("quant: truncated matrix %d header", mi)
		}
		mode := rest[0]
		rows := int(binary.LittleEndian.Uint32(rest[1:5]))
		cols := int(binary.LittleEndian.Uint32(rest[5:9]))
		rest = rest[9:]
		if rows < 0 || cols < 0 || rows > maxDim || cols > maxDim {
			return nil, fmt.Errorf("quant: matrix %d dims %dx%d out of range", mi, rows, cols)
		}
		n := rows * cols
		m := Matrix{Rows: rows, Cols: cols}
		switch mode {
		case modeInt8:
			if len(rest) < 16+n {
				return nil, fmt.Errorf("quant: truncated int8 matrix %d payload", mi)
			}
			m.Mode = Int8
			m.Scale = math.Float64frombits(binary.LittleEndian.Uint64(rest[:8]))
			m.Zero = math.Float64frombits(binary.LittleEndian.Uint64(rest[8:16]))
			if !(m.Scale > 0) || math.IsInf(m.Scale, 0) ||
				math.IsInf(m.Zero, 0) || math.IsNaN(m.Zero) {
				return nil, fmt.Errorf("quant: matrix %d has invalid scale/zero %g/%g", mi, m.Scale, m.Zero)
			}
			rest = rest[16:]
			m.I8 = make([]int8, n)
			for i := range m.I8 {
				m.I8[i] = int8(rest[i])
			}
			rest = rest[n:]
		case modeF32:
			if len(rest) < 4*n {
				return nil, fmt.Errorf("quant: truncated f32 matrix %d payload", mi)
			}
			m.Mode = F32
			m.F32 = make([]float32, n)
			for i := range m.F32 {
				m.F32[i] = math.Float32frombits(binary.LittleEndian.Uint32(rest[4*i:]))
			}
			rest = rest[4*n:]
		default:
			return nil, fmt.Errorf("quant: matrix %d has unknown mode %d", mi, mode)
		}
		ms = append(ms, m)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("quant: %d trailing bytes", len(rest))
	}
	return ms, nil
}
