package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"strings"
)

// DefaultBlockingCalls is the production blocking set: operations that can
// park the calling goroutine for an unbounded time and therefore must never
// run under a mutex. Patterns are funcFullName forms; a trailing "*" matches
// a prefix. The repository-specific entries are the store wait, chain commit,
// and netsim transfer paths — each one a simulated network or disk round
// trip.
var DefaultBlockingCalls = []string{
	"time.Sleep",
	"sync.Cond.Wait",
	"sync.WaitGroup.Wait",
	"ray/internal/objectstore.Store.Wait",
	"ray/internal/objectstore.Store.WaitEvictions",
	"ray/internal/chain.Chain.Put",
	"ray/internal/chain.Chain.PutBatch",
	"ray/internal/chain.Chain.WriteBatch",
	"ray/internal/netsim.Network.Transfer",
	"ray/internal/netsim.Network.TransferChunk",
	"ray/internal/netsim.Network.MessageDelay",
	"ray/internal/netsim.Network.Compute",
	"ray/internal/gcs.CommitFuture.Wait",
	"ray/internal/objectmanager.Manager.Pull",
}

// MutexHold flags potentially blocking operations executed while a
// sync.Mutex or sync.RWMutex is held: channel sends and receives, selects
// without a default clause, time.Sleep, sync.Cond.Wait-style parking (only
// when locks beyond the Cond's own mutex are held — Wait with exactly its
// own mutex is the required idiom), and calls into the configured blocking
// set. A goroutine that blocks while
// holding a lock starves every other goroutine contending for it — the exact
// shape of the fetch-hang deadlock PR 6 fixed.
type MutexHold struct {
	// BlockingCalls is the set of call patterns treated as blocking.
	BlockingCalls []string
}

// NewMutexHold returns the analyzer; nil blockingCalls selects
// DefaultBlockingCalls.
func NewMutexHold(blockingCalls []string) *MutexHold {
	if blockingCalls == nil {
		blockingCalls = DefaultBlockingCalls
	}
	return &MutexHold{BlockingCalls: blockingCalls}
}

func (a *MutexHold) Name() string { return "mutexhold" }

func (a *MutexHold) Doc() string {
	return "no blocking operation (channel op, select without default, sleep, blocking-set call) while a mutex is held"
}

func (a *MutexHold) Analyze(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.TargetPackages() {
		for _, fb := range functionBodies(pkg) {
			fb := fb
			sc := &lockScanner{
				pkg: pkg,
				cb: lockCallbacks{
					blocked: func(held []heldLock, pos token.Pos, what string) {
						diags = append(diags, Diagnostic{
							Pos:   prog.Position(pos),
							Check: a.Name(),
							Message: fmt.Sprintf("%s while holding %s in %s",
								what, describeHeld(held), fb.name),
						})
					},
					isBlockingCall: func(callee *types.Func, held []heldLock) bool {
						full := funcFullName(callee)
						if !matchAny(full, a.BlockingCalls) {
							return false
						}
						// Cond.Wait requires its own mutex held — that is the
						// API contract, not a hazard. It only becomes one when
						// the goroutine parks while holding ADDITIONAL locks.
						if full == "sync.Cond.Wait" {
							return len(held) > 1
						}
						return true
					},
				},
			}
			sc.scan(fb)
		}
	}
	SortDiagnostics(diags)
	return diags
}

func describeHeld(held []heldLock) string {
	parts := make([]string, 0, len(held))
	for _, h := range held {
		name := h.key
		if h.kind == lockRead {
			name += " (read)"
		}
		parts = append(parts, name)
	}
	return strings.Join(parts, ", ")
}
