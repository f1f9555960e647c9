package tensor

import "fmt"

// Matmul computes C = A·B for 2-D tensors A (m×k) and B (k×n), writing into a
// freshly allocated m×n tensor.
//
// The kernel iterates in ikj order so the inner loop streams both B and C
// rows sequentially; this is the standard cache-friendly layout for row-major
// storage and is 5-10x faster than the naive ijk order for the matrix sizes
// used by the neural-network substrate.
func Matmul(a, b *Dense) *Dense {
	m, k := mustMatrix(a, "Matmul lhs")
	k2, n := mustMatrix(b, "Matmul rhs")
	if k != k2 {
		panic(fmt.Sprintf("tensor: Matmul inner dimensions %d vs %d", k, k2))
	}
	c := New(m, n)
	matmulInto(c.data, a.data, b.data, m, k, n)
	return c
}

// MatmulInto computes C = A·B into an existing m×n tensor, avoiding the
// allocation. C must not alias A or B.
func MatmulInto(c, a, b *Dense) {
	m, k := mustMatrix(a, "MatmulInto lhs")
	k2, n := mustMatrix(b, "MatmulInto rhs")
	cm, cn := mustMatrix(c, "MatmulInto dst")
	if k != k2 || cm != m || cn != n {
		panic(fmt.Sprintf("tensor: MatmulInto shapes %v·%v -> %v", a.shape, b.shape, c.shape))
	}
	c.Zero()
	matmulInto(c.data, a.data, b.data, m, k, n)
}

func matmulInto(c, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		ci := c[i*n : (i+1)*n]
		ai := a[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			av := ai[p]
			if av == 0 {
				continue
			}
			bp := b[p*n : (p+1)*n]
			for j, bv := range bp {
				ci[j] += av * bv
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

// MatmulTAInto computes C = Aᵀ·B into an existing m×n tensor, avoiding the
// allocation. C must not alias A or B.
func MatmulTAInto(c, a, b *Dense) {
	k, m := mustMatrix(a, "MatmulTAInto lhs")
	k2, n := mustMatrix(b, "MatmulTAInto rhs")
	cm, cn := mustMatrix(c, "MatmulTAInto dst")
	if k != k2 || cm != m || cn != n {
		panic(fmt.Sprintf("tensor: MatmulTAInto shapes %vᵀ·%v -> %v", a.shape, b.shape, c.shape))
	}
	c.Zero()
	// C[i,j] = sum_p A[p,i]*B[p,j]; iterate p outer for sequential access.
	for p := 0; p < k; p++ {
		ap := a.data[p*m : (p+1)*m]
		bp := b.data[p*n : (p+1)*n]
		for i, av := range ap {
			if av == 0 {
				continue
			}
			ci := c.data[i*n : (i+1)*n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
}

// MatmulTB computes C = A·Bᵀ where A is m×k and B is n×k, producing m×n.
// Used for input gradients (dX = dY·Wᵀ).
func MatmulTB(a, b *Dense) *Dense {
	m, k := mustMatrix(a, "MatmulTB lhs")
	n, k2 := mustMatrix(b, "MatmulTB rhs")
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatmulTB inner dimensions %d vs %d", k, k2))
	}
	c := New(m, n)
	for i := 0; i < m; i++ {
		ai := a.data[i*k : (i+1)*k]
		ci := c.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b.data[j*k : (j+1)*k]
			var s float32
			for p, av := range ai {
				s += av * bj[p]
			}
			ci[j] = s
		}
	}
	return c
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

func mustMatrix(t *Dense, op string) (rows, cols int) {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: %s requires rank-2 tensor, got shape %v", op, t.shape))
	}
	return t.shape[0], t.shape[1]
}
