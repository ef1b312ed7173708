// Command elimination-stack runs the paper's headline client — the
// elimination stack of Hendler et al. (Figure 2) — with full
// instrumentation, and verifies the paper's main theorem on a real
// execution: composed from a CA-linearizable exchanger layer and a
// linearizable central stack, the elimination stack is linearizable with
// respect to the ordinary SEQUENTIAL stack specification, via the view
// functions F_AR and F_ES of §5.
package main

import (
	"context"
	"fmt"
	"os"
	"sync"

	"calgo"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "elimination-stack:", err)
		os.Exit(1)
	}
}

func run() error {
	rec := calgo.NewRecorder()
	es, err := calgo.NewElimStack("ES",
		calgo.ElimStackWithRecorder(rec),
		calgo.ElimStackWithSlots(2),
		calgo.ElimStackWithWaitPolicy(calgo.SpinWait(64)),
	)
	if err != nil {
		return err
	}

	// Balanced producers and consumers hammer the stack.
	const pairs = 4
	const per = 50
	var cap calgo.Capture
	var wg sync.WaitGroup
	for p := 0; p < pairs; p++ {
		wg.Add(2)
		go func(p int) {
			defer wg.Done()
			tid := calgo.ThreadID(2*p + 1)
			for i := 0; i < per; i++ {
				v := int64(p*10_000 + i)
				cap.Inv(tid, "ES", calgo.MethodPush, calgo.Int(v))
				if err := es.Push(tid, v); err != nil {
					panic(err) // cannot happen: v is never the sentinel
				}
				cap.Res(tid, "ES", calgo.MethodPush, calgo.Bool(true))
			}
		}(p)
		go func(p int) {
			defer wg.Done()
			tid := calgo.ThreadID(2*p + 2)
			for i := 0; i < per; i++ {
				cap.Inv(tid, "ES", calgo.MethodPop, calgo.Unit())
				v := es.Pop(tid)
				cap.Res(tid, "ES", calgo.MethodPop, calgo.Pair(true, v))
			}
		}(p)
	}
	wg.Wait()

	h := cap.History()
	raw := rec.Snapshot()
	esTrace := rec.View("ES")

	// How much work the elimination layer absorbed.
	eliminations, centralOps := 0, 0
	for _, el := range raw {
		switch {
		case el.Size() == 2:
			eliminations++
		case el.Object == "ES.S" && el.Ops[0].Ret.String() != "false" && el.Ops[0].Ret.String() != "(false,0)":
			centralOps++
		}
	}
	fmt.Printf("ran %d ops: %d raw CA-elements, %d exchanger pairings, %d successful central-stack ops\n",
		2*pairs*per, len(raw), eliminations, centralOps)

	// (i) The elimination stack's derived trace satisfies the ordinary
	// sequential stack spec.
	if _, err := calgo.SpecAccepts(calgo.NewStackSpec("ES"), esTrace); err != nil {
		return fmt.Errorf("derived ES trace violates the stack spec: %w", err)
	}
	fmt.Println("✓ F_ES ∘ F̂_AR derived trace satisfies the sequential stack specification")

	// (ii) The observed ES history agrees with the derived trace.
	if err := calgo.Agrees(h, esTrace); err != nil {
		return fmt.Errorf("history disagrees with derived trace: %w", err)
	}
	fmt.Println("✓ observed history agrees with the derived trace (Definition 5)")

	// (iii) Independent confirmation by the checker. The history's values
	// are distinct, so the stack monitor decides it without search.
	r, err := calgo.Linearizable(context.Background(), h, calgo.NewStackSpec("ES"),
		calgo.WithEngine(calgo.EngineAuto))
	if err != nil {
		return err
	}
	switch r.Verdict {
	case calgo.VerdictSat:
	case calgo.VerdictUnknown:
		return fmt.Errorf("checker could not decide the ES history: %s", r.Unknown.Reason)
	default:
		return fmt.Errorf("checker rejected the ES history: %s", r.Reason)
	}
	fmt.Printf("✓ checker confirms linearizability (engine %s)\n", r.Engine)

	// (iv) Modularity: each subobject's view satisfies its own spec,
	// independently of how the elimination stack uses it.
	if _, err := calgo.SpecAccepts(calgo.NewCentralStackSpec("ES.S"), rec.View("ES.S")); err != nil {
		return fmt.Errorf("central stack view: %w", err)
	}
	if _, err := calgo.SpecAccepts(calgo.NewElimArraySpec("ES.AR"), rec.View("ES.AR")); err != nil {
		return fmt.Errorf("elimination array view: %w", err)
	}
	fmt.Println("✓ subobject views satisfy their own specifications (modular verification)")
	return nil
}
