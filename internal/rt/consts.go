// Package rt builds executable images: it lays out the static area (symbols,
// strings, quoted structure), compiles the runtime system and user program
// with internal/lispc, emits the startup / GC / trap glue, and wires the
// result to a mipsx.Machine.
package rt

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"

	"repro/internal/layout"
	"repro/internal/lispc"
	"repro/internal/sexpr"
	"repro/internal/tags"
)

// constPool allocates the static area and implements lispc.Consts. The
// static area never moves; the collector scans it as a root region (mutable
// cells inside it — symbol values, plists, quoted pairs — may point into the
// heap).
type constPool struct {
	s     tags.Scheme
	words []uint32 // image of [0, end) in words; static data from StaticBase
	next  uint32   // next free byte address

	syms  map[string]uint32  // name -> object address
	strs  map[string]uint32  // contents -> item
	pairs map[pairKey]uint32 // (car item, cdr item) -> quoted pair item

	nilItem uint32
}

// pairKey identifies a quoted pair by its field items. Atoms are shared by
// SymbolItem and StringItem, so keying pairs on their fields hash-conses
// quoted structure bottom-up: equal quoted forms share one copy.
type pairKey struct{ car, cdr uint32 }

func newConstPool(s tags.Scheme) *constPool {
	p := &constPool{
		s:     s,
		next:  layout.StaticBase,
		syms:  make(map[string]uint32),
		strs:  make(map[string]uint32),
		pairs: make(map[pairKey]uint32),
	}
	// nil must exist before any other symbol so value/plist cells can be
	// initialized; t gives booleans an identity.
	p.SymbolItem("nil")
	p.SymbolItem("t")
	return p
}

func cerr(format string, args ...any) *lispc.Err {
	return &lispc.Err{Where: "constants", Msg: fmt.Sprintf(format, args...)}
}

// alloc reserves words for an object of type t and returns its byte address,
// honoring the scheme's alignment rule (8-byte granularity; Low3 vectors and
// strings start at odd word addresses).
func (p *constPool) alloc(t tags.Type, words int) uint32 {
	align, off := p.s.Align(t)
	a := (p.next + align - 1) / align * align
	a += off
	end := a + uint32(4*words)
	p.next = (end + 7) &^ 7
	for int(p.next/4) > len(p.words) {
		p.words = append(p.words, make([]uint32, 4096)...)
	}
	return a
}

func (p *constPool) set(addr, v uint32) { p.words[addr/4] = v }

// End returns the first byte address past the static area.
func (p *constPool) End() uint32 { return p.next }

// SymbolItem interns a symbol, building its 5-word object on first use.
func (p *constPool) SymbolItem(name string) uint32 {
	if addr, ok := p.syms[name]; ok {
		return p.s.MakePtr(tags.TSymbol, addr)
	}
	addr := p.alloc(tags.TSymbol, symbolWords)
	p.syms[name] = addr
	item := p.s.MakePtr(tags.TSymbol, addr)
	if name == "nil" {
		p.nilItem = item
	}
	p.set(addr, p.s.MakeHeader(tags.TSymbol, symbolWords))
	p.set(addr+4, p.StringItem(name))
	p.set(addr+8, p.nilItem)  // value
	p.set(addr+12, p.nilItem) // plist
	p.set(addr+16, p.nilItem) // function cell (patched for defuns)
	return item
}

const symbolWords = 5

// symbolAddr reports the address of an interned symbol.
func (p *constPool) symbolAddr(name string) (uint32, bool) {
	a, ok := p.syms[name]
	return a, ok
}

// StringItem builds (or reuses) a static string: [header][byte length as a
// fixnum][packed bytes, little endian].
func (p *constPool) StringItem(s string) uint32 {
	if item, ok := p.strs[s]; ok {
		return item
	}
	dataWords := (len(s) + 3) / 4
	words := 2 + dataWords
	addr := p.alloc(tags.TString, words)
	p.set(addr, p.s.MakeHeader(tags.TString, words))
	lenItem, ok := p.s.MakeInt(int64(len(s)))
	if !ok {
		panic(cerr("string too long"))
	}
	p.set(addr+4, lenItem)
	var buf [4]byte
	for w := 0; w < dataWords; w++ {
		copy(buf[:], []byte{0, 0, 0, 0})
		n := copy(buf[:], s[4*w:])
		_ = n
		p.set(addr+8+uint32(4*w), binary.LittleEndian.Uint32(buf[:]))
	}
	item := p.s.MakePtr(tags.TString, addr)
	p.strs[s] = item
	return item
}

// QuoteItem builds static structure for a quoted form. Equal forms share
// one copy. The cdr spine is walked iteratively, so building a list costs
// time and space linear in its length.
func (p *constPool) QuoteItem(v sexpr.Value) uint32 {
	var spine []uint32 // car items of the list cells, in order
	for {
		cell, ok := v.(*sexpr.Cell)
		if !ok {
			break
		}
		spine = append(spine, p.QuoteItem(cell.Car))
		v = cell.Cdr
	}
	// Every car is built before the tail and the cells last to first, the
	// order a car-then-cdr recursion allocates in.
	item := p.quoteAtom(v)
	for i := len(spine) - 1; i >= 0; i-- {
		k := pairKey{spine[i], item}
		if shared, ok := p.pairs[k]; ok {
			item = shared
			continue
		}
		addr := p.alloc(tags.TPair, 2)
		p.set(addr, k.car)
		p.set(addr+4, k.cdr)
		item = p.s.MakePtr(tags.TPair, addr)
		p.pairs[k] = item
	}
	return item
}

func (p *constPool) quoteAtom(v sexpr.Value) uint32 {
	switch q := v.(type) {
	case nil:
		return p.nilItem
	case sexpr.Int:
		item, ok := p.s.MakeInt(int64(q))
		if !ok {
			panic(cerr("quoted integer %d out of fixnum range", int64(q)))
		}
		return item
	case sexpr.Str:
		return p.StringItem(string(q))
	case *sexpr.Sym:
		return p.SymbolItem(q.Name)
	}
	panic(cerr("cannot quote %s", sexpr.String(v)))
}

// clone returns an independent copy of the pool: allocating in either
// leaves the other unchanged.
func (p *constPool) clone() *constPool {
	q := *p
	q.words = slices.Clone(p.words)
	q.syms = maps.Clone(p.syms)
	q.strs = maps.Clone(p.strs)
	q.pairs = maps.Clone(p.pairs)
	return &q
}

// IntItem builds a fixnum item, panicking on overflow.
func (p *constPool) IntItem(v int64) uint32 {
	item, ok := p.s.MakeInt(v)
	if !ok {
		panic(cerr("integer %d out of fixnum range", v))
	}
	return item
}
