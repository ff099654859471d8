package kernel

import (
	"context"
	"fmt"
	"runtime/debug"

	"splitmem/internal/cpu"
)

// StopReason explains why Kernel.Run returned control to the host.
type StopReason int

// Run stop reasons.
const (
	// ReasonAllDone: every process has exited or been killed.
	ReasonAllDone StopReason = iota + 1
	// ReasonWaitingInput: all live processes are blocked waiting for host
	// stdin input; the driver should feed data and call Run again.
	ReasonWaitingInput
	// ReasonBudget: the cycle budget given to Run was exhausted.
	ReasonBudget
	// ReasonDeadlock: live processes remain but none can ever run again
	// (e.g. all blocked on pipes with no writer).
	ReasonDeadlock
	// ReasonInternalError: a simulator bug panicked inside Run; the panic
	// was contained and converted to this result instead of crashing the
	// host. RunResult.Panic and RunResult.Stack carry the evidence.
	ReasonInternalError
	// ReasonCanceled: the context given to RunContext was canceled or its
	// deadline expired. The cancellation is observed between scheduler
	// timeslices, so the latency from cancel to return is at most one
	// timeslice of simulated work; guest state stays consistent and Run may
	// be called again to continue.
	ReasonCanceled
)

// String names the stop reason.
func (r StopReason) String() string {
	switch r {
	case ReasonAllDone:
		return "all-done"
	case ReasonWaitingInput:
		return "waiting-input"
	case ReasonBudget:
		return "budget"
	case ReasonDeadlock:
		return "deadlock"
	case ReasonInternalError:
		return "internal-error"
	case ReasonCanceled:
		return "canceled"
	}
	return "unknown"
}

// RunResult summarizes a Run invocation.
type RunResult struct {
	Reason StopReason
	Cycles uint64 // cycles consumed by this Run call
	Panic  string // ReasonInternalError only: the recovered panic value
	Stack  string // ReasonInternalError only: the host stack trace
	Trace  string // ReasonInternalError only: guest instruction trace tail, if recorded
}

// Run drives the scheduler until every process finishes, everyone is
// waiting on host input, or maxCycles simulated cycles elapse (0 = no
// budget). It is the host's "power button": drivers alternate between Run
// and feeding process stdin.
func (k *Kernel) Run(maxCycles uint64) RunResult {
	return k.RunContext(context.Background(), maxCycles)
}

// RunContext is Run with cancellation: it additionally returns
// ReasonCanceled when ctx is canceled or its deadline passes. The context
// is polled between scheduler timeslices (never mid-instruction), bounding
// the cancellation latency to one timeslice of simulated work while keeping
// the hot execution loop free of host synchronization.
func (k *Kernel) RunContext(ctx context.Context, maxCycles uint64) (res RunResult) {
	start := k.m.Cycles
	// Host panic containment: a simulator bug must never crash the embedding
	// process. The panic is logged as a machine check and reported through
	// the normal RunResult channel.
	defer func() {
		if r := recover(); r != nil {
			res = RunResult{
				Reason: ReasonInternalError,
				Cycles: k.m.Cycles - start,
				Panic:  fmt.Sprint(r),
				Stack:  string(debug.Stack()),
			}
			k.Emit(Event{Kind: EvMachineCheck, Text: "panic: " + res.Panic})
		}
	}()
	deadline := ^uint64(0)
	if maxCycles > 0 {
		deadline = start + maxCycles
	}
	for {
		select {
		case <-ctx.Done():
			return RunResult{Reason: ReasonCanceled, Cycles: k.m.Cycles - start}
		default:
		}
		k.serviceShells()
		k.wakeStdinWaiters()
		p := k.nextRunnable()
		if p == nil {
			return RunResult{Reason: k.idleReason(), Cycles: k.m.Cycles - start}
		}
		k.switchTo(p)
		sliceEnd := k.m.Cycles + k.timeslice
		if sliceEnd > deadline {
			sliceEnd = deadline
		}
		// Publish the bound so the superblock engine can side-exit compiled
		// blocks at exactly the cycle this loop would stop stepping, and
		// chain blocks while it would only keep stepping.
		k.m.SetSliceEnd(sliceEnd)
		for p.state == stateRunnable && k.m.Cycles < sliceEnd {
			if k.m.StepSlice() == cpu.StepStopped {
				break
			}
			// Chaos: forced timeslice expiry, checked only after the process
			// has made at least one step of progress so a high Preempt rate
			// degrades into a context-switch storm, never a livelock. When a
			// superblock consumed this instruction's draw in-block, honor its
			// verdict instead of drawing again — the draw stream must stay
			// aligned with an interpreter-only run.
			if drawn, preempt := k.m.TakePreemptDraw(); drawn {
				if preempt {
					break
				}
			} else if k.cfg.Chaos != nil && k.cfg.Chaos.ForcePreempt() {
				break
			}
		}
		if k.cur != nil && k.cur.Alive() {
			k.cur.Ctx = k.m.Ctx
		}
		if p.state == stateRunnable {
			k.enqueue(p)
		}
		if k.m.Cycles >= deadline {
			return RunResult{Reason: ReasonBudget, Cycles: k.m.Cycles - start}
		}
	}
}

// RunToCompletion runs with no budget and returns the result.
func (k *Kernel) RunToCompletion() RunResult { return k.Run(0) }

func (k *Kernel) idleReason() StopReason {
	live := 0
	waitingHost := 0
	for _, p := range k.procs {
		if !p.Alive() {
			continue
		}
		live++
		if p.state == stateWaitStdin || p.state == stateShell {
			waitingHost++
		}
	}
	switch {
	case live == 0:
		return ReasonAllDone
	case waitingHost > 0:
		return ReasonWaitingInput
	default:
		return ReasonDeadlock
	}
}

// enqueue adds p to the run queue if it is not already queued.
func (k *Kernel) enqueue(p *Process) {
	for _, pid := range k.runq {
		if pid == p.PID {
			return
		}
	}
	k.runq = append(k.runq, p.PID)
}

// nextRunnable pops the first actually-runnable process off the queue.
func (k *Kernel) nextRunnable() *Process {
	for len(k.runq) > 0 {
		pid := k.runq[0]
		k.runq = k.runq[1:]
		p, ok := k.procs[pid]
		if ok && p.state == stateRunnable {
			return p
		}
	}
	return nil
}

// switchTo performs a context switch: save the outgoing register file,
// install the incoming pagetable (which flushes both TLBs — the dominant
// cost source of the split-memory system, §4.6) and restore registers.
func (k *Kernel) switchTo(p *Process) {
	if k.cur == p {
		return
	}
	if k.cur != nil && k.cur.Alive() {
		k.cur.Ctx = k.m.Ctx
	}
	k.m.Ctx = p.Ctx
	k.m.SetPagetable(p.PT)
	if k.cur != nil {
		k.m.AddCycles(k.m.Cost.CtxSwitch)
		k.m.Stats.CtxSwitches++
	}
	k.cur = p
}

// wakeStdinWaiters moves processes blocked on stdin back to the run queue
// when input (or EOF) has arrived from the host. Processes wake in PID
// order: the wake order decides the run-queue order, and map iteration
// would make it (and everything downstream) nondeterministic.
func (k *Kernel) wakeStdinWaiters() {
	for _, p := range k.Processes() {
		if p.state == stateWaitStdin && (len(p.stdin.data) > 0 || p.stdin.eof) {
			p.state = stateRunnable
			k.enqueue(p)
		}
	}
}

// exitProcess terminates p voluntarily with the given status.
func (k *Kernel) exitProcess(p *Process, status int) {
	p.state = stateExited
	p.exitCode = status
	k.finishProcess(p)
	k.Emit(Event{Kind: EvProcessExit, PID: p.PID, Proc: p.Name, Addr: uint32(status)})
}

// killProcess terminates p with a signal (the kernel's SIGSEGV/SIGILL
// delivery; the paper's break response mode ends here).
func (k *Kernel) killProcess(p *Process, sig Signal, addr uint32) {
	p.state = stateKilled
	p.killSig = sig
	p.faultAddr = addr
	k.finishProcess(p)
	k.Emit(Event{Kind: EvSignal, PID: p.PID, Proc: p.Name, Signal: sig, Addr: addr})
}

func (k *Kernel) finishProcess(p *Process) {
	k.releaseProcessMemory(p)
	for fd := range p.fds {
		k.closeFD(p, fd)
	}
	if k.cur == p {
		k.cur = nil
		// The machine must not keep executing with the dead pagetable.
	}
	// Wake a parent blocked in waitpid.
	if parent, ok := k.procs[p.parent]; ok && parent.state == stateWaitChild {
		if parent.waitAny || parent.waitPID == p.PID {
			parent.state = stateRunnable
			k.enqueue(parent)
		}
	}
}

// Kill terminates a process from the host side (e.g. a honeypot operator
// pulling the plug on an observed attack). Returns false if the pid is
// unknown or already dead.
func (k *Kernel) Kill(pid int, sig Signal) bool {
	p, ok := k.procs[pid]
	if !ok || !p.Alive() {
		return false
	}
	k.killProcess(p, sig, 0)
	return true
}

// liveProcesses returns the number of processes still alive.
func (k *Kernel) liveProcesses() int {
	n := 0
	for _, p := range k.procs {
		if p.Alive() {
			n++
		}
	}
	return n
}
