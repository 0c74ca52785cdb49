// Product-form representation of the simplex basis inverse: the basis
// is implicitly B = E_1·E_2·…·E_k, each E_t an identity matrix with one
// column replaced by the pivot column ("eta vector") of iteration t, so
// B⁻¹·v (FTRAN) applies E_1⁻¹ … E_k⁻¹ in order and B⁻ᵀ·v (BTRAN)
// applies the transposed inverses in reverse. The file is rebuilt from
// scratch periodically (refactorisation) to cap its length and flush
// accumulated roundoff.

package lp

// dropTol discards eta entries too small to matter; keeping them only
// grows the file and amplifies roundoff.
const dropTol = 1e-12

// eta is one elementary transformation: an identity matrix whose column
// at basis position pos is replaced by the spike vector (piv at pos,
// val[k] at idx[k] elsewhere).
type eta struct {
	pos int
	piv float64
	idx []int
	val []float64
}

// etaFile is the ordered sequence of eta transformations.
type etaFile struct {
	m    int
	etas []eta
	base int // etas the last factorisation left; those after are pivots
}

func newEtaFile(m int) *etaFile { return &etaFile{m: m} }

func (f *etaFile) reset() {
	f.etas = f.etas[:0]
	f.base = 0
}

// pivots reports how many basis changes the file holds since it was
// last rebuilt from the basis: the length the refactorisation cap
// bounds.
func (f *etaFile) pivots() int { return len(f.etas) - f.base }

// unitSpike reports whether w is the unit vector at pos up to dropTol,
// whose eta would be the identity: FTRAN and BTRAN through it change
// nothing.
func unitSpike(pos int, w []float64) bool {
	if w[pos] != 1 {
		return false
	}
	for i, v := range w {
		if i != pos && (v > dropTol || v < -dropTol) {
			return false
		}
	}
	return true
}

// push appends the eta that post-multiplies the basis with the spike w
// at position pos; w[pos] is the pivot element. w is copied sparsely.
func (f *etaFile) push(pos int, w []float64) {
	e := eta{pos: pos, piv: w[pos]}
	for i, v := range w {
		if i != pos && (v > dropTol || v < -dropTol) {
			e.idx = append(e.idx, i)
			e.val = append(e.val, v)
		}
	}
	f.etas = append(f.etas, e)
}

// ftran solves B·w = v in place: w = E_k⁻¹·…·E_1⁻¹·v.
func (f *etaFile) ftran(v []float64) {
	for k := range f.etas {
		e := &f.etas[k]
		vp := v[e.pos]
		if vp == 0 {
			continue
		}
		vp /= e.piv
		v[e.pos] = vp
		for t, i := range e.idx {
			v[i] -= e.val[t] * vp
		}
	}
}

// btran solves Bᵀ·y = v in place: y = E_1⁻ᵀ·…·E_k⁻ᵀ·v.
func (f *etaFile) btran(v []float64) {
	for k := len(f.etas) - 1; k >= 0; k-- {
		e := &f.etas[k]
		s := v[e.pos]
		for t, i := range e.idx {
			s -= e.val[t] * v[i]
		}
		v[e.pos] = s / e.piv
	}
}
