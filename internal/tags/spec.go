package tags

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Placement says where in the word a scheme's tag field lives.
type Placement uint8

// The two placements the paper studies.
const (
	PlaceHigh Placement = iota // tag in the most significant bits (§2.1, §4.2)
	PlaceLow                   // tag in the least significant bits (§5.2)
)

func (p Placement) String() string {
	if p == PlaceLow {
		return "low"
	}
	return "high"
}

// Spec is a declarative description of a tag scheme: the placement, the
// field width, and the tag value of every type. It is the unit the
// scheme-search enumerator produces and the table-driven constructor
// consumes — a valid Spec materializes into a Scheme that behaves exactly
// like a hand-written one and therefore runs on all three engines.
//
// Conventions baked into the runtime that a Spec must respect:
//
//   - Tags[TInt] is the positive-integer tag and must be 0 on both
//     placements (fixnum arithmetic operates on items directly). High
//     placements tag negative integers with the all-ones pattern, which is
//     implied and not part of the Spec.
//   - Low placements store only the bottom two tag bits in the item; a
//     3-bit tag borrows its top bit from the object's alignment (address
//     bit 2), so a heap tag with zero stored bits would make pointers
//     indistinguishable from fixnums and is invalid.
//   - Low placements force Tags[TCode] = 0 (code entry points are
//     word-aligned byte addresses that must look like fixnums to the
//     collector) and Tags[THeader] = all-ones (the header-word test is
//     w & mask == mask).
//   - Pairs have no header word, so TPair may never share a tag with
//     another heap type; the other heap types may share, at the price of a
//     header check on their type tests.
type Spec struct {
	Placement Placement
	Bits      int
	Tags      [NumTypes]uint8
}

// heapTypes are the pointer types the collector traces; they are the
// types whose tag values the search enumerates.
const (
	firstHeapType = TPair
	lastHeapType  = TFloat
)

// Name returns the canonical self-describing spelling of the spec,
// accepted everywhere a scheme name is (core.ParseScheme, the API, the
// cache key): "x" + placement letter + width + ":" + the tag values of
// pair, symbol, vector, string, float, code and header joined with dots.
// The builtin low3 scheme, respelled: "xl3:1.2.5.6.3.0.7".
func (sp Spec) Name() string {
	p := byte('h')
	if sp.Placement == PlaceLow {
		p = 'l'
	}
	parts := make([]string, 0, int(NumTypes)-1)
	for t := firstHeapType; t < NumTypes; t++ {
		parts = append(parts, strconv.Itoa(int(sp.Tags[t])))
	}
	return fmt.Sprintf("x%c%d:%s", p, sp.Bits, strings.Join(parts, "."))
}

// ParseSpecName parses the canonical spelling produced by Spec.Name. It
// validates the result, so a parsed spec is always materializable.
func ParseSpecName(name string) (Spec, error) {
	var sp Spec
	rest, ok := strings.CutPrefix(name, "x")
	if !ok || len(rest) < 2 {
		return sp, fmt.Errorf("spec %q: want x<placement><bits>:<tags>", name)
	}
	switch rest[0] {
	case 'h':
		sp.Placement = PlaceHigh
	case 'l':
		sp.Placement = PlaceLow
	default:
		return sp, fmt.Errorf("spec %q: placement must be h or l", name)
	}
	head, tagPart, ok := strings.Cut(rest[1:], ":")
	if !ok {
		return sp, fmt.Errorf("spec %q: missing ':' before the tag list", name)
	}
	bits, err := strconv.Atoi(head)
	if err != nil {
		return sp, fmt.Errorf("spec %q: bad width %q", name, head)
	}
	sp.Bits = bits
	fields := strings.Split(tagPart, ".")
	if len(fields) != int(NumTypes)-1 {
		return sp, fmt.Errorf("spec %q: want %d dot-separated tag values (pair..header), got %d",
			name, int(NumTypes)-1, len(fields))
	}
	for i, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil || v < 0 || v > 255 {
			return sp, fmt.Errorf("spec %q: bad tag value %q", name, f)
		}
		sp.Tags[firstHeapType+Type(i)] = uint8(v)
	}
	if err := sp.Validate(); err != nil {
		return sp, fmt.Errorf("spec %q: %w", name, err)
	}
	return sp, nil
}

// Validate checks the structural invariants a Spec must satisfy for the
// runtime (allocator, collector, compiler) to function at all. These are
// placement mechanics, not search properties: a spec that passes Validate
// produces a working Scheme, whether or not it has any of the
// check-elision properties the search engine looks for.
func (sp Spec) Validate() error {
	top := uint8(1<<sp.Bits - 1)
	switch sp.Placement {
	case PlaceHigh:
		// The memory plan needs at least 26 address bits below the tag
		// field (see rt.Build), and fewer than 4 tag bits cannot encode
		// the seven non-integer types plus both integer tags.
		if sp.Bits < 4 || sp.Bits > 6 {
			return fmt.Errorf("high placement supports widths 4..6, not %d", sp.Bits)
		}
		if sp.Tags[TInt] != 0 {
			return fmt.Errorf("positive integers must be tagged 0, not %d", sp.Tags[TInt])
		}
		seen := map[uint8]Type{}
		for t := firstHeapType; t < NumTypes; t++ {
			v := sp.Tags[t]
			if v == 0 || v >= top {
				return fmt.Errorf("%s tag %d collides with the integer tags (0 and %d)", t, v, top)
			}
			if prev, dup := seen[v]; dup {
				return fmt.Errorf("%s and %s share tag %d; high placement needs distinct tags", prev, t, v)
			}
			seen[v] = t
		}
	case PlaceLow:
		if sp.Bits < 2 || sp.Bits > 3 {
			return fmt.Errorf("low placement supports widths 2..3, not %d", sp.Bits)
		}
		if sp.Tags[TInt] != 0 {
			return fmt.Errorf("integers must be tagged 0, not %d", sp.Tags[TInt])
		}
		if sp.Tags[TCode] != 0 {
			return fmt.Errorf("code entries must carry the integer tag 0, not %d (the collector must skip them)", sp.Tags[TCode])
		}
		if sp.Tags[THeader] != top {
			return fmt.Errorf("header tag must be the all-ones pattern %d, not %d", top, sp.Tags[THeader])
		}
		for t := firstHeapType; t <= lastHeapType; t++ {
			v := sp.Tags[t]
			if v == 0 || v >= top {
				return fmt.Errorf("%s tag %d collides with the integer (0) or header (%d) pattern", t, v, top)
			}
			if v&3 == 0 {
				return fmt.Errorf("%s tag %d has zero stored bits; its pointers would look like fixnums", t, v)
			}
		}
		for t := TSymbol; t <= lastHeapType; t++ {
			if sp.Tags[t] == sp.Tags[TPair] {
				return fmt.Errorf("%s shares tag %d with pair; pairs have no header to disambiguate", t, sp.Tags[TPair])
			}
		}
		// The borrowed alignment bit (bit 2) must be 0 for pairs: the cons
		// fast path, sys-cons and the collector's headerless-pair copy all
		// place pairs on 8-byte boundaries and never pad to an odd word, so
		// a pair tag with bit 2 set would come back mistagged. Other heap
		// types are padded by their allocators (or interned statically) and
		// may use the odd-word trick.
		if sp.Tags[TPair]&4 != 0 {
			return fmt.Errorf("pair tag %d has bit 2 set; cons allocates pairs on 8-byte boundaries, so the pair tag cannot borrow the alignment bit", sp.Tags[TPair])
		}
	default:
		return fmt.Errorf("unknown placement %d", sp.Placement)
	}
	return nil
}

// HeaderCheckTypes lists the heap types whose type test must consult the
// object header because they share their pointer tag with another heap
// type. Always empty for high placement (Validate requires distinct tags).
func (sp Spec) HeaderCheckTypes() []Type {
	var shared []Type
	for t := firstHeapType; t <= lastHeapType; t++ {
		for u := firstHeapType; u <= lastHeapType; u++ {
			if u != t && sp.Tags[u] == sp.Tags[t] {
				shared = append(shared, t)
				break
			}
		}
	}
	return shared
}

// BuiltinSpec returns the Spec equivalent of a builtin scheme, so the
// search engine can reason about the paper's hand-built schemes with the
// same machinery it applies to candidates.
func BuiltinSpec(k Kind) (Spec, bool) {
	switch k {
	case High5:
		return Spec{PlaceHigh, 5, high5Scheme.tagVals}, true
	case High6:
		return Spec{PlaceHigh, 6, high6Scheme.tagVals}, true
	case Low3:
		return Spec{PlaceLow, 3, low3Scheme.tagVals}, true
	case Low2:
		return Spec{PlaceLow, 2, low2Scheme.tagVals}, true
	}
	return Spec{}, false
}

// Preview materializes a Scheme from the spec without registering it: the
// instance works for host-side encoding checks (MakeInt, TypeOf, ...) but
// its Kind is not resolvable through New. Use Register for a scheme that
// must run in the simulator.
func Preview(sp Spec) (Scheme, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return newTableScheme(^Kind(0), sp), nil
}

// newTableScheme builds the scheme for a validated spec. Both placements
// reuse the exact implementations behind the hand-built schemes — the
// structs are fully table-driven — which is what guarantees a searched
// scheme behaves identically across the compiler, the runtime and all
// three engines.
func newTableScheme(k Kind, sp Spec) Scheme {
	if sp.Placement == PlaceHigh {
		return &highScheme{kind: k, bits: sp.Bits, tagVals: sp.Tags, negInt: uint8(1<<sp.Bits - 1)}
	}
	return &lowScheme{kind: k, bits: sp.Bits, tagVals: sp.Tags}
}

// kindDynBase is the first Kind value handed to registered specs; builtin
// kinds stay below it.
const kindDynBase Kind = 1 << 10

// registry maps registered specs to dynamic Kinds, both ways. Guarded by
// regMu; the server registers schemes concurrently from search requests.
var (
	regMu     sync.RWMutex
	regByName = map[string]Kind{}
	regByKind = map[Kind]*regEntry{}
	regNext   = kindDynBase
)

type regEntry struct {
	name   string
	spec   Spec
	scheme Scheme
}

// Register validates sp and assigns it a Kind, materializing the scheme
// behind it. Registration is idempotent: the same spec (by canonical
// name) always returns the same Kind, so repeated searches and cache keys
// agree across a process's lifetime.
func Register(sp Spec) (Kind, error) {
	if err := sp.Validate(); err != nil {
		return 0, err
	}
	name := sp.Name()
	regMu.Lock()
	defer regMu.Unlock()
	if k, ok := regByName[name]; ok {
		return k, nil
	}
	k := regNext
	regNext++
	regByName[name] = k
	regByKind[k] = &regEntry{name: name, spec: sp, scheme: newTableScheme(k, sp)}
	return k, nil
}

// RegisterName parses and registers a canonical spec name in one step.
func RegisterName(name string) (Kind, error) {
	sp, err := ParseSpecName(name)
	if err != nil {
		return 0, err
	}
	return Register(sp)
}

// SpecOf returns the Spec behind a kind — registered or builtin.
func SpecOf(k Kind) (Spec, bool) {
	if sp, ok := BuiltinSpec(k); ok {
		return sp, true
	}
	regMu.RLock()
	defer regMu.RUnlock()
	if e, ok := regByKind[k]; ok {
		return e.spec, true
	}
	return Spec{}, false
}

// RegisteredNames returns the canonical names of every registered spec,
// sorted, for introspection.
func RegisteredNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(regByName))
	for n := range regByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func lookupKind(k Kind) (*regEntry, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := regByKind[k]
	return e, ok
}
