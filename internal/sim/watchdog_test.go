package sim

import (
	"errors"
	"strings"
	"testing"
)

func TestRunCheckedClean(t *testing.T) {
	eng := NewEngine()
	ran := false
	Spawn(eng, "worker", func(p *Process) {
		p.Wait(10)
		ran = true
	})
	if err := eng.RunChecked(0); err != nil {
		t.Fatalf("RunChecked: %v", err)
	}
	if !ran {
		t.Fatal("process body did not run")
	}
	if got := eng.StuckProcesses(); len(got) != 0 {
		t.Fatalf("no process should be stuck, got %v", got)
	}
}

func TestRunCheckedDetectsDeadlock(t *testing.T) {
	eng := NewEngine()
	sig := NewSignal(eng) // never fired
	Spawn(eng, "blocked-a", func(p *Process) { p.WaitSignal(sig) })
	Spawn(eng, "blocked-b", func(p *Process) { p.WaitSignal(sig) })
	Spawn(eng, "fine", func(p *Process) { p.Wait(5) })

	err := eng.RunChecked(0)
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeadlockError, got %v", err)
	}
	if len(de.Stuck) != 2 || de.Stuck[0] != "blocked-a" || de.Stuck[1] != "blocked-b" {
		t.Fatalf("stuck processes = %v, want [blocked-a blocked-b]", de.Stuck)
	}
	if de.Pending != 0 {
		t.Fatalf("a true deadlock drains the queue, pending = %d", de.Pending)
	}
	if !strings.Contains(err.Error(), "blocked-a") {
		t.Fatalf("diagnostic must name stuck processes:\n%s", err)
	}
}

func TestRunCheckedCycleBudget(t *testing.T) {
	eng := NewEngine()
	Spawn(eng, "endless", func(p *Process) {
		for {
			p.Wait(100)
		}
	})
	err := eng.RunChecked(1000)
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeadlockError, got %v", err)
	}
	if de.Cycle > 1000 {
		t.Fatalf("watchdog fired late, at cycle %d", de.Cycle)
	}
	if de.Pending == 0 {
		t.Fatal("budget overrun should report the still-pending event")
	}
	if !strings.Contains(de.Reason, "budget") {
		t.Fatalf("reason %q should mention the budget", de.Reason)
	}
}

func TestRunCheckedDiagnosticHooks(t *testing.T) {
	eng := NewEngine()
	eng.OnDiagnostic(func() []string { return []string{"component: 3 widgets outstanding"} })
	Spawn(eng, "stuck", func(p *Process) { p.WaitSignal(NewSignal(eng)) })
	err := eng.RunChecked(0)
	if err == nil || !strings.Contains(err.Error(), "3 widgets outstanding") {
		t.Fatalf("diagnostic hook output missing:\n%v", err)
	}
}

func TestProcessPanicIsTyped(t *testing.T) {
	eng := NewEngine()
	cause := errors.New("model invariant broken")
	Spawn(eng, "bad", func(p *Process) {
		p.Wait(1)
		panic(cause)
	})
	defer func() {
		r := recover()
		pp, ok := r.(*ProcessPanic)
		if !ok {
			t.Fatalf("want *ProcessPanic, got %v", r)
		}
		if pp.Name != "bad" {
			t.Fatalf("panic names process %q, want bad", pp.Name)
		}
		if !errors.Is(pp, cause) {
			t.Fatal("ProcessPanic must unwrap to the original error")
		}
	}()
	eng.RunChecked(0)
	t.Fatal("expected the process panic to propagate")
}

func TestVisitLiveProcesses(t *testing.T) {
	eng := NewEngine()
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		d := Time(20)
		if name == "b" || name == "d" {
			d = 5
		}
		Spawn(eng, name, func(p *Process) { p.Wait(d) })
	}
	visit := func(limit int) ([]string, bool) {
		var seen []string
		ok := eng.VisitLiveProcesses(func(p *Process) bool {
			seen = append(seen, p.Name())
			return len(seen) < limit
		})
		return seen, ok
	}

	if got, ok := visit(99); !ok || strings.Join(got, ",") != "a,b,c,d,e" {
		t.Fatalf("before running: visited %v (complete=%v), want every process in spawn order", got, ok)
	}
	eng.RunUntil(10) // b and d finish; a, c and e are still waiting
	if got, ok := visit(99); !ok || strings.Join(got, ",") != "a,c,e" {
		t.Fatalf("after b and d finished: visited %v (complete=%v), want a,c,e", got, ok)
	}
	if got, ok := visit(2); ok || strings.Join(got, ",") != "a,c" {
		t.Fatalf("visit returning false on the 2nd process: visited %v (complete=%v), want a,c and false", got, ok)
	}
	eng.Run()
	if got, ok := visit(99); !ok || len(got) != 0 {
		t.Fatalf("after the run: visited %v (complete=%v), want none", got, ok)
	}
}
