package cluster

// The in-process cluster harness: N replica slots behind stable URLs, a
// gateway over them, and fault controls (drain, kill, restart). It exists
// so the same machinery drives the -race integration tests, the
// splitmem-gateway -selftest smoke, and the cluster benchmark row —
// everything through the public HTTP surface, nothing reaching into
// internals.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"splitmem/internal/serve"
)

// Node is one replica slot: a stable httptest front whose URL never
// changes, delegating to a swappable serve.Server — so a "process
// restart" (new Server, new instance ID, same URL) and a "crash" (no
// server; connections die) are both one pointer swap, exactly the view a
// gateway has of a real host.
type Node struct {
	cfg   serve.Config
	front *httptest.Server

	mu   sync.Mutex
	srv  *serve.Server // nil while killed
	down chan struct{} // closed once the last killed server has shut down
}

// newNode boots a replica slot with a live server.
func newNode(cfg serve.Config) (*Node, error) {
	n := &Node{cfg: cfg}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	n.srv = srv
	n.front = httptest.NewServer(http.HandlerFunc(n.serveHTTP))
	return n, nil
}

func (n *Node) serveHTTP(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	srv := n.srv
	n.mu.Unlock()
	if srv == nil {
		// Killed: behave like a dead host, not a polite 5xx — hijack the
		// connection and slam it shut so clients see a transport error.
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		panic(http.ErrAbortHandler)
	}
	srv.Handler().ServeHTTP(w, r)
}

// URL returns the node's stable base URL.
func (n *Node) URL() string { return n.front.URL }

// Server returns the node's current serve.Server (nil while killed).
func (n *Node) Server() *serve.Server {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.srv
}

// Drain begins a graceful drain of the current server (SIGTERM
// equivalent): admission stops, /healthz reports draining, and the
// gateway migrates its jobs away.
func (n *Node) Drain() {
	if srv := n.Server(); srv != nil {
		srv.BeginDrain()
	}
}

// Kill crashes the node: the server vanishes mid-flight, every open
// connection (including job relays) breaks, and new connections die. The
// old server's jobs are canceled in the background.
func (n *Node) Kill() {
	n.mu.Lock()
	old := n.srv
	n.srv = nil
	var down chan struct{}
	if old != nil {
		down = make(chan struct{})
		n.down = down
	}
	n.mu.Unlock()
	n.front.CloseClientConnections()
	if old != nil {
		go func() {
			old.CancelRunning()
			old.Close()
			close(down)
		}()
	}
}

// Restart boots a fresh server (new instance ID, same URL) into the slot,
// replacing whatever is there. A replaced live server is shut down in the
// background. A killed server's shutdown is awaited first: a crashed
// process does no more disk I/O, so the new server must not replay the
// journal while the old one can still append to (or truncate) it.
func (n *Node) Restart() error {
	n.mu.Lock()
	down := n.down
	n.mu.Unlock()
	if down != nil {
		<-down
	}
	srv, err := serve.New(n.cfg)
	if err != nil {
		return err
	}
	n.mu.Lock()
	old := n.srv
	n.srv = srv
	n.mu.Unlock()
	if old != nil {
		go func() {
			old.CancelRunning()
			old.Close()
		}()
	}
	return nil
}

// close tears the slot down.
func (n *Node) close() {
	n.mu.Lock()
	old := n.srv
	n.srv = nil
	n.mu.Unlock()
	n.front.Close()
	if old != nil {
		old.CancelRunning()
		old.Close()
	}
}

// Harness is an in-process cluster: nodes, gateway, and the gateway's own
// HTTP front.
type Harness struct {
	Nodes   []*Node
	Gateway *Gateway
	front   *httptest.Server
}

// NewHarness boots n replicas and a gateway over them. gcfg.Replicas is
// filled in by the harness.
func NewHarness(n int, rcfg serve.Config, gcfg Config) (*Harness, error) {
	return NewHarnessFunc(n, func(int) serve.Config { return rcfg }, gcfg)
}

// NewHarnessFunc is NewHarness with a per-node config: node i gets
// rcfg(i). The chaos campaign uses it to give every replica its own
// journal path while sharing one disk-fault injector.
func NewHarnessFunc(n int, rcfg func(i int) serve.Config, gcfg Config) (*Harness, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	h := &Harness{}
	for i := 0; i < n; i++ {
		node, err := newNode(rcfg(i))
		if err != nil {
			h.Close()
			return nil, err
		}
		h.Nodes = append(h.Nodes, node)
		gcfg.Replicas = append(gcfg.Replicas, node.URL())
	}
	gw, err := New(gcfg)
	if err != nil {
		h.Close()
		return nil, err
	}
	h.Gateway = gw
	h.front = httptest.NewServer(gw.Handler())
	return h, nil
}

// URL returns the gateway's base URL — the address load generators hit.
func (h *Harness) URL() string { return h.front.URL }

// Close tears the whole cluster down.
func (h *Harness) Close() {
	if h.front != nil {
		h.front.Close()
	}
	if h.Gateway != nil {
		h.Gateway.Close()
	}
	for _, n := range h.Nodes {
		n.close()
	}
}

// AwaitState polls until the gateway sees replica i in the wanted state
// (or the deadline passes; the caller checks the return).
func (h *Harness) AwaitState(i int, want State, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if h.Gateway.Replicas()[i].State() == want {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return h.Gateway.Replicas()[i].State() == want
}

// AwaitQuiet polls until replica i's current server has no live gateway
// jobs (migration off it is complete).
func (h *Harness) AwaitQuiet(i int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	rep := h.Gateway.Replicas()[i]
	for time.Now().Before(deadline) {
		if len(h.Gateway.jobsOn(rep)) == 0 {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return len(h.Gateway.jobsOn(rep)) == 0
}

// RollingRestart restarts every node once, gracefully: drain, wait for
// the gateway to migrate the node's jobs away, kill, boot a fresh server,
// wait for the gateway to re-admit it. An explicit order restarts that
// sequence of node indexes instead of 0..n-1. Returns an error naming the
// node and phase that got stuck.
func (h *Harness) RollingRestart(perNode time.Duration, order ...int) error {
	if len(order) == 0 {
		order = make([]int, len(h.Nodes))
		for i := range order {
			order[i] = i
		}
	}
	for _, i := range order {
		node := h.Nodes[i]
		node.Drain()
		if !h.AwaitState(i, StateDraining, perNode) {
			return fmt.Errorf("node %d: gateway never saw the drain", i)
		}
		if !h.AwaitQuiet(i, perNode) {
			return fmt.Errorf("node %d: jobs still on it after drain migration", i)
		}
		node.Kill()
		if err := node.Restart(); err != nil {
			return fmt.Errorf("node %d: restart: %w", i, err)
		}
		if !h.AwaitState(i, StateUp, perNode) {
			return fmt.Errorf("node %d: gateway never re-admitted the restarted server", i)
		}
	}
	return nil
}
