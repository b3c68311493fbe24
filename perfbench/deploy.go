package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/server"
	"repro/internal/store"
)

// clients is the connection count of every closed loop: two, one per
// core of the machine the bounds were set on.
const clients = 2

// serverConfig mirrors cmd/spatiald's defaults (admission slots =
// GOMAXPROCS, no queueing, 64 layers, 2s drain), on an ephemeral port.
func serverConfig() server.Config {
	return server.Config{Addr: "127.0.0.1:0", MaxLayers: 64, DrainGrace: 2 * time.Second}
}

func startServer(cfg server.Config) (*server.Server, error) {
	srv := server.New(cfg)
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return srv, nil
}

func stopServer(srv *server.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// saveLayers writes each dataset as an SPSNAP01 snapshot under dir.
func saveLayers(dir string, sets map[string]*data.Dataset) (map[string]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths := map[string]string{}
	for name, d := range sets {
		p := filepath.Join(dir, name+".snap")
		if _, err := store.Save(p, d, store.SaveOptions{Tool: "perfbench"}); err != nil {
			return nil, fmt.Errorf("save %s: %w", name, err)
		}
		paths[name] = p
	}
	return paths, nil
}

// loadLayers binds each snapshot over the wire and returns the load
// latencies (ms).
func loadLayers(c *client, names []string, paths map[string]string) ([]float64, error) {
	var lat []float64
	for _, name := range names {
		rp, err := c.mustOK("load " + name + " " + paths[name])
		if err != nil {
			return nil, err
		}
		lat = append(lat, ms(rp.total))
	}
	return lat, nil
}

func dialN(addr string, n int) ([]*client, error) {
	var cs []*client
	for i := 0; i < n; i++ {
		c, err := dial(addr)
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []*client) {
	for _, c := range cs {
		c.close()
	}
}

// shuffled maps a client's k-th operation onto a mix of n operations run
// in cycles, each cycle in its own seeded order. The two clients' long
// and short operations then overlap at random, instead of locking into
// one phase for a whole run.
func shuffled(seed int64, ci, k, n int) int {
	rng := rand.New(rand.NewSource(seed<<24 ^ int64(ci)<<20 ^ int64(k/n)))
	return rng.Perm(n)[k%n]
}

// op is one closed-loop command with its answer check.
type op struct {
	kind  string
	line  string
	check func(reply) string // "" when the answer is right
}

var reqSeq atomic.Int64

// verdict classifies a reply: "" when it is an ok reply with the right
// answer, else the failure reason.
func verdict(o op, rp reply) string {
	if !rp.ok() {
		s := rp.status
		if i := strings.IndexByte(s, ':'); i >= 0 {
			s = s[:i]
		}
		return o.kind + " " + s
	}
	if o.check != nil {
		if why := o.check(rp); why != "" {
			return o.kind + " wrong answer: " + why
		}
	}
	return ""
}

// closedLoop runs one goroutine per client until the deadline; each
// sends its next operation only after the previous reply. Every reply is
// checked; a broken connection ends the run with an error.
func closedLoop(cs []*client, until time.Time, next func(ci, k int) op, rec *recorder, tr *tracer) error {
	start, cpu0 := time.Now(), cpuTime()
	var wg sync.WaitGroup
	errs := make([]error, len(cs))
	for ci, c := range cs {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for k := 0; time.Now().Before(until); k++ {
				o := next(ci, k)
				id := tr.begin("wire."+o.kind, -1, reqSeq.Add(1))
				rp, err := c.do(o.line)
				tr.end(id)
				if err != nil {
					errs[ci] = fmt.Errorf("%s: %w", o.kind, err)
					return
				}
				rec.lined(len(rp.lines) + 1)
				why := verdict(o, rp)
				rec.observe(o.kind, rp.total, why)
				if why == "" && rp.first > 0 {
					rec.firstLine(o.kind, rp.first)
				}
			}
		}(ci, c)
	}
	wg.Wait()
	rec.addLoop(start, cpu0)
	return errors.Join(errs...)
}

// settle runs a full garbage collection, so that a collection earlier
// work left due does not land inside the next measured query.
func settle() { runtime.GC() }

// coldCycles runs cycle(0..n-1), each after a settle, spread evenly from
// now until until; it starts no cycle after until, except the first. The
// host's CPU speed drifts from second to second, so samples taken in one
// burst would all share one moment's speed.
func coldCycles(until time.Time, n int, cycle func(cyc int) error) error {
	start := time.Now()
	step := until.Sub(start) / time.Duration(n)
	for cyc := 0; cyc < n && (cyc == 0 || time.Now().Before(until)); cyc++ {
		time.Sleep(time.Until(start.Add(step * time.Duration(cyc))))
		settle()
		if err := cycle(cyc); err != nil {
			return err
		}
	}
	return nil
}

// runOnce runs one checked command outside the closed loop, alone, and
// records it under kind; ok says the answer was right.
func runOnce(c *client, o op, kind string, rec *recorder) (s cost, ok bool, err error) {
	cpu0 := cpuTime()
	rp, err := c.do(o.line)
	if err != nil {
		return cost{}, false, err
	}
	s = cost{wall: ms(rp.total), cpu: ms(cpuTime() - cpu0)}
	why := verdict(o, rp)
	rec.observe(kind, rp.total, why)
	return s, why == "", nil
}

// countCheck checks a "<verb>: N results" summary against want.
func countCheck(verb string, want int) func(reply) string {
	return func(rp reply) string {
		n, ok := resultCount(rp, verb)
		if !ok {
			return "no summary line"
		}
		if n != want {
			return fmt.Sprintf("%d results, oracle %d", n, want)
		}
		return ""
	}
}

// joinLine and friends build the wire commands.
func joinLine(verb string, jp [2]string) string { return verb + " " + jp[0] + " " + jp[1] }

func withinLine() string { return fmt.Sprintf("within water prism %g", withinD) }

func selectLine(layer, wkt string) string { return "select " + layer + " " + wkt }
