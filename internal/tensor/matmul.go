package tensor

import "fmt"

// The three products share one numeric contract: every output element is the
// sum of its k terms taken in ascending p, starting from +0, each term one
// rounded multiply followed by one rounded add (Axpy, never fused), and a
// term whose left-hand factor is exactly zero is skipped. Loop order, row
// blocking and SIMD width only change which elements are in flight together,
// never the order of one element's sum, so the results are bitwise those of
// the naive triple loop with the same skip. The skip matters only for
// non-finite right-hand operands (0·Inf is dropped instead of poisoning the
// sum with NaN); for finite ones s + ±0 == s, and an accumulator started at
// +0 never becomes −0.

// rowBlock is how many rows of C the forward kernel advances together: a row
// of B is read once per block instead of once per row of A, and the block of
// C rows (4 × 768 floats on the widest layer) stays in L1.
const rowBlock = 4

// Matmul computes C = A·B for 2-D tensors A (m×k) and B (k×n) into a freshly
// allocated m×n tensor.
func Matmul(a, b *Dense) *Dense {
	m, _ := mustMatrix(a, "Matmul lhs")
	_, n := mustMatrix(b, "Matmul rhs")
	c := New(m, n)
	MatmulInto(c, a, b)
	return c
}

// MatmulInto computes C = A·B into an existing m×n tensor. C must not alias
// A or B.
func MatmulInto(c, a, b *Dense) {
	m, k, n := productDims("MatmulInto", c, a, b, false, false)
	c.Zero()
	for i0 := 0; i0 < m; i0 += rowBlock {
		i1 := min(i0+rowBlock, m)
		for p := 0; p < k; p++ {
			bp := b.data[p*n : (p+1)*n]
			for i := i0; i < i1; i++ {
				if av := a.data[i*k+p]; av != 0 {
					Axpy(av, bp, c.data[i*n:(i+1)*n])
				}
			}
		}
	}
}

// MatmulTA computes C = Aᵀ·B where A is k×m and B is k×n, producing m×n.
// Used for weight gradients (dW = Xᵀ·dY).
func MatmulTA(a, b *Dense) *Dense {
	_, m := mustMatrix(a, "MatmulTA lhs")
	_, n := mustMatrix(b, "MatmulTA rhs")
	c := New(m, n)
	MatmulTAInto(c, a, b)
	return c
}

// MatmulTAInto computes C = Aᵀ·B into an existing m×n tensor. C must not
// alias A or B.
func MatmulTAInto(c, a, b *Dense) { matmulTA(c, a, b, false, "MatmulTAInto") }

// MatmulTAAcc computes C += Aᵀ·B, bitwise C.Add(MatmulTA(a, b)) — the product
// is summed on its own and then added, not accumulated term by term into
// what C already holds — without the m×n temporary or a second pass over C.
func MatmulTAAcc(c, a, b *Dense) { matmulTA(c, a, b, true, "MatmulTAAcc") }

// taChunk bounds the on-stack row of products MatmulTAAcc sums before adding
// it to C; wider outputs are done in column chunks of this many.
const taChunk = 1024

// matmulTA walks C row by row with the batch dimension p inside, so each row
// of C is written once and B (k×n, the small operand of a weight gradient)
// is the only thing re-read.
func matmulTA(c, a, b *Dense, acc bool, op string) {
	m, k, n := productDims(op, c, a, b, true, false)
	var buf [taChunk]float32
	for i := 0; i < m; i++ {
		for j0 := 0; j0 < n; j0 += taChunk {
			j1 := min(j0+taChunk, n)
			ci := c.data[i*n+j0 : i*n+j1]
			row := ci
			if acc {
				row = buf[:j1-j0]
			}
			clear(row)
			for p := 0; p < k; p++ {
				if av := a.data[p*m+i]; av != 0 {
					Axpy(av, b.data[p*n+j0:p*n+j1], row)
				}
			}
			if acc {
				Axpy(1, row, ci)
			}
		}
	}
}

// MatmulTB computes C = A·Bᵀ where A is m×k and B is n×k, producing m×n.
// Used for input gradients (dX = dY·Wᵀ).
func MatmulTB(a, b *Dense) *Dense {
	m, _ := mustMatrix(a, "MatmulTB lhs")
	n, _ := mustMatrix(b, "MatmulTB rhs")
	c := New(m, n)
	MatmulTBInto(c, a, b)
	return c
}

// tbRows × tbCols is the tile of Bᵀ MatmulTBInto builds on its stack.
const (
	tbRows = 32
	tbCols = 128
)

// MatmulTBInto computes C = A·Bᵀ into an existing m×n tensor. C must not
// alias A or B.
//
// B's rows run along p, the wrong way for Axpy, so B is transposed a
// tbCols×tbRows tile at a time into a stack buffer and each tile is then used
// by every row of A: one element moved per m multiply-adds. Tiles advance
// along p inside a column block, so an element of C still meets its terms in
// ascending p.
func MatmulTBInto(c, a, b *Dense) {
	m, k, n := productDims("MatmulTBInto", c, a, b, false, true)
	c.Zero()
	var tile [tbRows * tbCols]float32
	for j0 := 0; j0 < n; j0 += tbCols {
		w := min(tbCols, n-j0)
		for p0 := 0; p0 < k; p0 += tbRows {
			h := min(tbRows, k-p0)
			for j := 0; j < w; j++ {
				bj := b.data[(j0+j)*k+p0:][:h]
				for p, v := range bj {
					tile[p*w+j] = v
				}
			}
			for i := 0; i < m; i++ {
				ci := c.data[i*n+j0:][:w]
				for p, av := range a.data[i*k+p0:][:h] {
					if av != 0 {
						Axpy(av, tile[p*w:][:w], ci)
					}
				}
			}
		}
	}
}

// Transpose returns a new tensor holding the transpose of 2-D tensor a.
func Transpose(a *Dense) *Dense {
	m, n := mustMatrix(a, "Transpose")
	t := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			t.data[j*m+i] = a.data[i*n+j]
		}
	}
	return t
}

// productDims returns the m, k, n of C[m×n] = Σ over k for an A and B stored
// transposed as flagged, and panics unless all three shapes agree.
func productDims(op string, c, a, b *Dense, ta, tb bool) (m, k, n int) {
	m, k = mustMatrix(a, op)
	if ta {
		m, k = k, m
	}
	k2, n := mustMatrix(b, op)
	if tb {
		k2, n = n, k2
	}
	if cm, cn := mustMatrix(c, op); k != k2 || cm != m || cn != n {
		panic(fmt.Sprintf("tensor: %s shapes %v, %v -> %v (lhsᵀ %v, rhsᵀ %v)", op, a.shape, b.shape, c.shape, ta, tb))
	}
	return m, k, n
}

func mustMatrix(t *Dense, op string) (rows, cols int) {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: %s requires rank-2 tensor, got shape %v", op, t.shape))
	}
	return t.shape[0], t.shape[1]
}
