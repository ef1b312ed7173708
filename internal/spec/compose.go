package spec

import (
	"encoding/binary"
	"fmt"
	"strings"

	"calgo/internal/history"
	"calgo/internal/trace"
)

// Product composes specifications of disjoint objects into one: a trace is
// admitted iff, for each component object, the projection of the trace to
// that object is admitted by its component specification. This mirrors the
// paper's strict separation between objects (§2): disjoint objects never
// constrain each other.
type Product struct {
	order []history.ObjectID
	specs map[history.ObjectID]Spec
}

var (
	_ Spec            = (*Product)(nil)
	_ PendingResolver = (*Product)(nil)
)

// NewProduct composes the given specifications. Component objects must be
// distinct and non-empty.
func NewProduct(specs ...Spec) (*Product, error) {
	p := &Product{specs: make(map[history.ObjectID]Spec, len(specs))}
	for _, sp := range specs {
		o := sp.Object()
		if o == "" {
			return nil, fmt.Errorf("spec: product components must constrain a single object (%s does not)", sp.Name())
		}
		if _, dup := p.specs[o]; dup {
			return nil, fmt.Errorf("spec: two product components constrain object %s", o)
		}
		p.specs[o] = sp
		p.order = append(p.order, o)
	}
	return p, nil
}

// Components returns the component specifications in composition order.
// Streaming checkers use it to demultiplex a multi-object event stream
// into one incremental engine per component object.
func (p *Product) Components() []Spec {
	out := make([]Spec, len(p.order))
	for i, o := range p.order {
		out[i] = p.specs[o]
	}
	return out
}

// MustProduct is NewProduct that panics on error; for tests and literals.
func MustProduct(specs ...Spec) *Product {
	p, err := NewProduct(specs...)
	if err != nil {
		panic(err)
	}
	return p
}

// productState carries one component state per object, in p.order.
type productState struct {
	parts []State
	key   string
}

func (s productState) Key() string { return s.key }

// makeState keys the product as each part's object, '=', its key's length
// and its key. Part keys may hold any byte, so only the length prefix
// keeps the product key injective.
func (p *Product) makeState(parts []State) productState {
	var b strings.Builder
	var buf [binary.MaxVarintLen64]byte
	for i, part := range parts {
		k := part.Key()
		b.WriteString(string(p.order[i]))
		b.WriteByte('=')
		b.Write(binary.AppendUvarint(buf[:0], uint64(len(k))))
		b.WriteString(k)
	}
	return productState{parts: parts, key: b.String()}
}

// Name implements Spec.
func (p *Product) Name() string {
	names := make([]string, 0, len(p.order))
	for _, o := range p.order {
		names = append(names, p.specs[o].Name())
	}
	return "product(" + strings.Join(names, ", ") + ")"
}

// Object implements Spec; a product constrains several objects, so it
// returns the empty ObjectID.
func (p *Product) Object() history.ObjectID { return "" }

// Init implements Spec.
func (p *Product) Init() State {
	parts := make([]State, len(p.order))
	for i, o := range p.order {
		parts[i] = p.specs[o].Init()
	}
	return p.makeState(parts)
}

// MaxElementSize implements Spec.
func (p *Product) MaxElementSize() int {
	max := 1
	for _, sp := range p.specs {
		if sp.MaxElementSize() > max {
			max = sp.MaxElementSize()
		}
	}
	return max
}

// Step implements Spec, dispatching on the element's object.
func (p *Product) Step(s State, el trace.Element) (State, error) {
	ps, ok := s.(productState)
	if !ok {
		return nil, fmt.Errorf("foreign state %T", s)
	}
	for i, o := range p.order {
		if o != el.Object {
			continue
		}
		next, err := p.specs[o].Step(ps.parts[i], el)
		if err != nil {
			return nil, err
		}
		parts := make([]State, len(ps.parts))
		copy(parts, ps.parts)
		parts[i] = next
		return p.makeState(parts), nil
	}
	return nil, fmt.Errorf("no component specification for object %s", el.Object)
}

// ResolveReturns implements PendingResolver by dispatching to the component
// that owns the element's object, when that component can resolve.
func (p *Product) ResolveReturns(s State, ops []trace.Operation, pendingIdx []int) [][]history.Value {
	if len(ops) == 0 {
		return nil
	}
	ps, ok := s.(productState)
	if !ok {
		return nil
	}
	for i, o := range p.order {
		if o != ops[0].Object {
			continue
		}
		pr, ok := p.specs[o].(PendingResolver)
		if !ok {
			return nil
		}
		return pr.ResolveReturns(ps.parts[i], ops, pendingIdx)
	}
	return nil
}
