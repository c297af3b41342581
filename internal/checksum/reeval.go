package checksum

import "stencilabft/internal/num"

// RepairRows is the common path of an online repair: locate by re-evaluating
// the flagged rows. A mismatching column-checksum entry already names the
// row, and the read buffer still holds iteration t, so sweeping that one row
// again (1/ny of a sweep) yields its fault-free cells bit for bit: the cells
// whose bits change are the corrupted points, located and repaired in one
// move, and the run continues bitwise equal to a fault-free one — where
// Equation (10) leaves the rounding of a line checksum in the repaired cell.
//
// directB and interpB are the owner's fused and interpolated column
// checksums. For each entry j the detector flags, row(j) is the row's cells
// in the write buffer and resweep(j) recomputes them from the read buffer
// through the owner's own sweep driver, returning the row's fresh checksum
// entry composed the way the owner's sweep composes it; saved is scratch of
// at least a row. A row whose fresh entry agrees with the interpolation is
// repaired — directB[j] becomes the fresh entry — and its changed cells are
// counted; none changed means the corruption sat in the checksum entry.
//
// A row whose fresh entry still disagrees is one re-evaluation cannot serve
// (the read buffer itself is corrupted, or the detector fired on rounding):
// the row and its entry are put back as they were and ok is false, and the
// caller runs its two-vector Equation-(10) path on what is left.
func RepairRows[T num.Float](det Detector[T], directB, interpB, saved []T, row func(j int) []T, resweep func(j int) T) (cells int, ok bool) {
	ok = true
	for j, old := range directB {
		if !det.Exceeds(old, interpB[j]) {
			continue
		}
		r := row(j)
		was := saved[:len(r)]
		copy(was, r)
		fresh := resweep(j)
		if det.Exceeds(fresh, interpB[j]) {
			copy(r, was)
			directB[j] = old
			ok = false
			continue
		}
		directB[j] = fresh
		for i, v := range r {
			if !num.SameBits(v, was[i]) {
				cells++
			}
		}
	}
	return cells, ok
}
