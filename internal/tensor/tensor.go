// Package tensor implements dense float32 tensors and the linear-algebra
// primitives required by the neural-network substrate and the gradient
// compressors.
//
// The design intentionally mirrors the small subset of TensorFlow/PyTorch
// tensor functionality that the GRACE paper's framework relies on: shaped
// dense arrays of float32, elementwise arithmetic, reductions and norms, and
// 2-D matrix products. Storage is a flat slice in row-major order; Data
// exposes it so compressors can operate on gradients as flat vectors, exactly
// as the paper's sparsify/quantize helpers do.
package tensor

import (
	"fmt"
	"math"
)

// Dense is a dense, row-major float32 tensor.
type Dense struct {
	shape []int
	data  []float32
}

// New allocates a zero-filled tensor with the given shape. A tensor with no
// dimensions is a scalar holding one element.
func New(shape ...int) *Dense {
	n := checkShape(shape)
	return &Dense{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it panics if len(data) does not match the shape.
func FromSlice(data []float32, shape ...int) *Dense {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d does not match shape %v (size %d)", len(data), shape, n))
	}
	return &Dense{shape: append([]int(nil), shape...), data: data}
}

func checkShape(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// The copy keeps shape from escaping, so a caller's variadic
			// dimensions stay on its stack.
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The returned slice must not be
// mutated.
func (t *Dense) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Dense) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Dense) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Dense) Size() int { return len(t.data) }

// Data returns the underlying storage in row-major order. Mutating it mutates
// the tensor.
func (t *Dense) Data() []float32 { return t.data }

// Clone returns a deep copy.
func (t *Dense) Clone() *Dense {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a tensor sharing t's storage with a new shape of equal
// size. It panics on size mismatch.
func (t *Dense) Reshape(shape ...int) *Dense {
	n := checkShape(shape)
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape size %d to %v", len(t.data), shape))
	}
	return &Dense{shape: append([]int(nil), shape...), data: t.data}
}

// Resize gives t the given shape in place, for a buffer its owner reuses
// from one step to the next: storage is kept while its capacity suffices and
// reallocated only when the shape outgrows it. A same-size Resize is a
// reshape and keeps the contents; after any other the contents are
// unspecified. The zero Dense is a valid receiver.
func (t *Dense) Resize(shape ...int) *Dense {
	n := checkShape(shape)
	if cap(t.data) < n {
		t.data = make([]float32, n)
	}
	t.data = t.data[:n]
	t.shape = append(t.shape[:0], shape...)
	return t
}

// Wrap re-points t at data with the given shape, the allocation-free
// FromSlice for a header its owner reuses: the slice is used directly, and
// whatever t held before is dropped, not overwritten.
func (t *Dense) Wrap(data []float32, shape ...int) *Dense {
	if n := checkShape(shape); len(data) != n {
		panic(fmt.Sprintf("tensor: Wrap data length %d does not match shape %v (size %d)", len(data), append([]int(nil), shape...), n))
	}
	t.data = data
	t.shape = append(t.shape[:0], shape...)
	return t
}

// offset converts a multi-index to a flat offset.
func (t *Dense) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, v := range idx {
		if v < 0 || v >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + v
	}
	return off
}

// At returns the element at the multi-index idx.
func (t *Dense) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set assigns v to the element at the multi-index idx.
func (t *Dense) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

// Fill sets every element to v.
func (t *Dense) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Dense) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// CopyFrom copies src's elements into t. Shapes must have equal sizes.
func (t *Dense) CopyFrom(src *Dense) {
	if len(src.data) != len(t.data) {
		panic("tensor: CopyFrom size mismatch")
	}
	copy(t.data, src.data)
}

// SameShape reports whether t and o have identical shapes.
func (t *Dense) SameShape(o *Dense) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// String renders a compact description (shape and size), not the full
// contents, to keep logs readable for large tensors.
func (t *Dense) String() string {
	return fmt.Sprintf("Dense%v(%d elems)", t.shape, len(t.data))
}

// --- Elementwise operations (in place, returning t for chaining) ---

func (t *Dense) assertSame(o *Dense, op string) {
	if len(o.data) != len(t.data) {
		panic(fmt.Sprintf("tensor: %s size mismatch %d vs %d", op, len(t.data), len(o.data)))
	}
}

// Add adds o elementwise into t (1·v is exactly v, so Axpy adds v itself).
func (t *Dense) Add(o *Dense) *Dense {
	t.assertSame(o, "Add")
	Axpy(1, o.data, t.data)
	return t
}

// Sub subtracts o elementwise from t.
func (t *Dense) Sub(o *Dense) *Dense {
	t.assertSame(o, "Sub")
	for i, v := range o.data {
		t.data[i] -= v
	}
	return t
}

// Mul multiplies t by o elementwise (Hadamard product).
func (t *Dense) Mul(o *Dense) *Dense {
	t.assertSame(o, "Mul")
	for i, v := range o.data {
		t.data[i] *= v
	}
	return t
}

// Div divides t by o elementwise.
func (t *Dense) Div(o *Dense) *Dense {
	t.assertSame(o, "Div")
	for i, v := range o.data {
		t.data[i] /= v
	}
	return t
}

// Scale multiplies every element by s.
func (t *Dense) Scale(s float32) *Dense {
	Scale(s, t.data)
	return t
}

// AddScaled performs t += s*o, the product rounded before the add.
func (t *Dense) AddScaled(s float32, o *Dense) *Dense {
	t.assertSame(o, "AddScaled")
	Axpy(s, o.data, t.data)
	return t
}

// Apply replaces each element x with f(x).
func (t *Dense) Apply(f func(float32) float32) *Dense {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
	return t
}

// --- Reductions ---

// Sum returns the sum of all elements, accumulated in float64.
func (t *Dense) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Dense) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Max returns the maximum element. It panics on empty tensors.
func (t *Dense) Max() float32 {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element. It panics on empty tensors.
func (t *Dense) Min() float32 {
	if len(t.data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Dot returns the inner product <t, o> accumulated in float64.
func (t *Dense) Dot(o *Dense) float64 {
	t.assertSame(o, "Dot")
	var s float64
	for i, v := range t.data {
		s += float64(v) * float64(o.data[i])
	}
	return s
}

// --- Norms (computed on the flat vector, as compressors require) ---

// Norm2 returns the Euclidean norm.
func (t *Dense) Norm2() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// --- Flat-vector helpers shared with the compressors ---

// Norm2F32 returns the Euclidean norm of a flat float32 vector.
func Norm2F32(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// Norm1F32 returns the L1 norm of a flat float32 vector.
func Norm1F32(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(float64(v))
	}
	return s
}

// NormInfF32 returns the infinity norm of a flat float32 vector.
func NormInfF32(x []float32) float64 {
	var m float64
	for _, v := range x {
		a := math.Abs(float64(v))
		if a > m {
			m = a
		}
	}
	return m
}
