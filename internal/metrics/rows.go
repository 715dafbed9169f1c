package metrics

import "math/bits"

// rows is an append-only list of recorded rows that grows in pages that
// never move: the first page holds 16 rows, the next ones double up to
// rowPage, and every page after them holds rowPage. Appending fills the tail
// page and, once it is full, adds a new one, so no row is ever copied: a
// query's recorder allocates about what it keeps, where a growing slice
// copies every row again at each growth. The store's triple log
// (internal/store/log.go) grows the same way, with larger pages: a query
// records about a hundred rows of 24 to 160 bytes and thousands of 12-byte
// triples, and each keeps its page sizes constant so that finding a row is a
// shift and a mask.
type rows[T any] struct {
	dir [][]T
	n   int
}

const (
	// rowFirstShift: the first page holds 1<<rowFirstShift rows.
	rowFirstShift = 4
	// rowPageShift: a full page holds rowPage rows.
	rowPageShift = 6
	rowPage      = 1 << rowPageShift
	// rowSmallPages is the number of pages below rowPage, which together
	// hold the first rowPage rows.
	rowSmallPages = rowPageShift - rowFirstShift + 1
)

func (l *rows[T]) len() int { return l.n }

// rowLocate maps row i to its page in the directory and its offset there.
func rowLocate(i int) (page, off int) {
	if i >= rowPage {
		return i>>rowPageShift + rowSmallPages - 1, i & (rowPage - 1)
	}
	k := bits.Len(uint(i) >> rowFirstShift)
	return k, i & (1<<(rowFirstShift+max(k, 1)-1) - 1)
}

// at returns row i < l.len().
func (l *rows[T]) at(i int) *T {
	p, off := rowLocate(i)
	return &l.dir[p][off]
}

// append adds v as row l.len(), first adding a page when the row starts
// one: as large as every row before it while that is below rowPage. The
// directory starts with room for the small pages and the first full one.
func (l *rows[T]) append(v T) {
	p, off := rowLocate(l.n)
	if off == 0 {
		if l.dir == nil {
			l.dir = make([][]T, 0, rowSmallPages+1)
		}
		l.dir = append(l.dir, make([]T, min(max(l.n, 1<<rowFirstShift), rowPage)))
	}
	l.dir[p][off] = v
	l.n++
}

// appendTo appends every row, in order, to dst.
func (l *rows[T]) appendTo(dst []T) []T {
	for k, left := 0, l.n; left > 0; k++ {
		page := l.dir[k][:min(left, len(l.dir[k]))]
		dst = append(dst, page...)
		left -= len(page)
	}
	return dst
}
