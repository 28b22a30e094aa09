package xdr

import (
	"fmt"
	"sync"
)

// RAM is sparse byte-addressable storage: pages are materialized on first
// touch so a 512 MB address space costs only what the workload touches.
// It carries the *contents* of memory; all timing lives in Memory.
type RAM struct {
	total    int64
	pageSize int64
	pages    map[int64]*ramPage
}

// ramPage is one materialized page, boxed so the pool can hold it without
// allocating.
type ramPage struct{ b []byte }

// pagePool recycles pages across RAM lifetimes, the way spe's lsPool
// recycles local stores. A sweep boots a fresh system per point, and a
// GUPS point alone touches 16 MB of pages; recycling trades those
// allocations (and the GC cycles they drive) for a memclr on reuse.
var pagePool sync.Pool

// newPage returns a zeroed page of n bytes, recycled when one is pooled.
// A pooled page of another geometry is dropped.
func newPage(n int64) *ramPage {
	if v := pagePool.Get(); v != nil {
		if p := v.(*ramPage); int64(len(p.b)) == n {
			clear(p.b)
			return p
		}
	}
	return &ramPage{b: make([]byte, n)}
}

// NewRAM returns storage for total bytes, paged at pageSize.
func NewRAM(total, pageSize int64) *RAM {
	if total <= 0 || pageSize <= 0 || total%pageSize != 0 {
		panic(fmt.Sprintf("xdr: bad RAM geometry total=%d page=%d", total, pageSize))
	}
	return &RAM{total: total, pageSize: pageSize, pages: make(map[int64]*ramPage)}
}

// Size returns the address-space size in bytes.
func (r *RAM) Size() int64 { return r.total }

// Reset returns every materialized page to the shared pool, so all memory
// reads as zero again. The map is retained (emptied) for reuse. The
// caller promises no slice obtained from this RAM is used afterwards.
func (r *RAM) Reset() {
	for _, p := range r.pages {
		pagePool.Put(p)
	}
	clear(r.pages)
}

// TouchedPages returns how many pages have been materialized.
func (r *RAM) TouchedPages() int { return len(r.pages) }

func (r *RAM) page(idx int64, create bool) []byte {
	p := r.pages[idx]
	if p == nil {
		if !create {
			return nil
		}
		p = newPage(r.pageSize)
		r.pages[idx] = p
	}
	return p.b
}

func (r *RAM) check(addr int64, n int) {
	if addr < 0 || addr+int64(n) > r.total {
		panic(fmt.Sprintf("xdr: RAM access %#x+%d out of range", addr, n))
	}
}

// Read copies len(dst) bytes at addr into dst. Untouched memory reads as
// zero.
func (r *RAM) Read(addr int64, dst []byte) {
	r.check(addr, len(dst))
	for len(dst) > 0 {
		idx, off := addr/r.pageSize, addr%r.pageSize
		n := int(r.pageSize - off)
		if n > len(dst) {
			n = len(dst)
		}
		if p := r.page(idx, false); p != nil {
			copy(dst[:n], p[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += int64(n)
	}
}

// Write copies src into memory at addr.
func (r *RAM) Write(addr int64, src []byte) {
	r.check(addr, len(src))
	for len(src) > 0 {
		idx, off := addr/r.pageSize, addr%r.pageSize
		n := int(r.pageSize - off)
		if n > len(src) {
			n = len(src)
		}
		copy(r.page(idx, true)[off:], src[:n])
		src = src[n:]
		addr += int64(n)
	}
}
