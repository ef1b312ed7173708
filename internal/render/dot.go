package render

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"calgo/internal/check"
	"calgo/internal/sched"
)

// DOT renders the explanation as a Graphviz digraph: one node per
// operation, grouped into cluster subgraphs by the CA-element of the
// witness that absorbed them (the matched partition of H ⊑CAL T on Sat,
// the partial witness on Unsat/Unknown), with edges for the transitive
// reduction of the real-time order ≺H. Operations outside the witness are
// highlighted: the first blocked operation filled red, other blocked
// operations outlined red, dropped pending invocations gray and dashed.
func DOT(ex *check.Explanation) string {
	var b strings.Builder
	b.WriteString("digraph cal {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [shape=box, fontname=\"monospace\"];\n")
	fmt.Fprintf(&b, "  label=%s;\n", dotQuote(fmt.Sprintf("verdict: %s", ex.Verdict)))

	elemOps := ex.ElementOps()
	inElem := make(map[int]bool)
	for k, idx := range elemOps {
		fmt.Fprintf(&b, "  subgraph cluster_e%d {\n", k)
		fmt.Fprintf(&b, "    label=%s;\n", dotQuote(fmt.Sprintf("element #%d: %s", k, ex.Witness[k].Object)))
		b.WriteString("    style=rounded;\n")
		for _, i := range idx {
			inElem[i] = true
			fmt.Fprintf(&b, "    op%d [label=%s];\n", i, dotQuote(ex.Ops[i].String()))
		}
		b.WriteString("  }\n")
	}

	first := ex.FirstBlocked()
	for i, op := range ex.Ops {
		if inElem[i] {
			continue
		}
		attrs := []string{"label=" + dotQuote(op.String())}
		switch {
		case op.Pending:
			attrs = append(attrs, `color=gray`, `fontcolor=gray`, `style=dashed`)
		case i == first:
			attrs = append(attrs, `color=red`, `style=filled`, `fillcolor="#ffdddd"`)
		default:
			attrs = append(attrs, `color=red`)
		}
		fmt.Fprintf(&b, "  op%d [%s];\n", i, strings.Join(attrs, ", "))
	}

	// Real-time order ≺H, transitively reduced so the picture stays a
	// Hasse diagram rather than a clique chain. ≺H is an interval order,
	// so i -> j is a covering edge iff j is invoked after i responds and
	// before the earliest response among the operations invoked after i
	// responds. Ops are in invocation order: those j are one run of ops,
	// found by a binary search and a suffix minimum of responses.
	ops := ex.Ops
	n := len(ops)
	minRes := make([]int, n+1) // minRes[p]: earliest response among ops[p:]
	minRes[n] = math.MaxInt
	for p := n - 1; p >= 0; p-- {
		minRes[p] = minRes[p+1]
		if !ops[p].Pending && ops[p].ResIndex < minRes[p] {
			minRes[p] = ops[p].ResIndex
		}
	}
	for i := range ops {
		if ops[i].Pending {
			continue
		}
		res := ops[i].ResIndex
		p := sort.Search(n, func(j int) bool { return ops[j].InvIndex > res })
		for j := p; j < n && ops[j].InvIndex < minRes[p]; j++ {
			fmt.Fprintf(&b, "  op%d -> op%d;\n", i, j)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// ScheduleDOT renders an explorer counterexample schedule as a linear
// Graphviz chain from the initial state to the violating one, each edge
// labelled with the thread and transition that took it.
func ScheduleDOT(steps []sched.Step) string {
	var b strings.Builder
	b.WriteString("digraph schedule {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [shape=circle, label=\"\", width=0.2];\n")
	fmt.Fprintf(&b, "  s%d [shape=doublecircle, color=red];\n", len(steps))
	for k, s := range steps {
		fmt.Fprintf(&b, "  s%d -> s%d [label=%s];\n", k, k+1, dotQuote(s.String()))
	}
	b.WriteString("}\n")
	return b.String()
}

// dotQuote renders s as a double-quoted DOT string literal.
func dotQuote(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// ValidateDOT syntactically checks a DOT document without invoking
// graphviz: the document must open with graph/digraph, every quoted
// string must close on its line of use, braces and brackets must balance
// and never go negative, and the top-level braces must close by the end.
// It is a structural smoke test, not a full parser — it accepts every
// document this package emits and rejects truncation, unbalanced quoting
// and stray closers.
func ValidateDOT(s string) error {
	trimmed := strings.TrimSpace(s)
	if !strings.HasPrefix(trimmed, "digraph") && !strings.HasPrefix(trimmed, "graph") &&
		!strings.HasPrefix(trimmed, "strict ") {
		return fmt.Errorf("render: DOT must start with graph/digraph, got %.20q", trimmed)
	}
	var braces, brackets int
	inQuote, escaped := false, false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inQuote {
			switch {
			case escaped:
				escaped = false
			case c == '\\':
				escaped = true
			case c == '"':
				inQuote = false
			}
			continue
		}
		switch c {
		case '"':
			inQuote = true
		case '{':
			braces++
		case '}':
			braces--
			if braces < 0 {
				return fmt.Errorf("render: DOT has unmatched '}' at byte %d", i)
			}
		case '[':
			brackets++
		case ']':
			brackets--
			if brackets < 0 {
				return fmt.Errorf("render: DOT has unmatched ']' at byte %d", i)
			}
		}
	}
	if inQuote {
		return fmt.Errorf("render: DOT ends inside a quoted string")
	}
	if braces != 0 {
		return fmt.Errorf("render: DOT has %d unclosed brace(s)", braces)
	}
	if brackets != 0 {
		return fmt.Errorf("render: DOT has %d unclosed bracket(s)", brackets)
	}
	if !strings.Contains(trimmed, "{") {
		return fmt.Errorf("render: DOT has no graph body")
	}
	return nil
}
