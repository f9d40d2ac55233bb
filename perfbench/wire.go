package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/vt"
)

const (
	wireSize    = 1024
	wireBlocks  = 64
	wireChannel = "frames"
	// wireGetTimeout turns a lost reply into a failed operation instead
	// of a hang.
	wireGetTimeout = 5 * time.Second
	// wireWarmup is longer than the chains' warm-up. The hosted channel
	// keeps a map entry for every timestamp ever put, and that map
	// doubles at about 115k, 230k and 460k entries. At about 20k round
	// trips per second a 1-s warm-up plus the window lands near the
	// 230k step, so the peak RSS of otherwise equal runs differs by a
	// doubling. After 5 s of warm-up a 10-s window ends between the
	// 230k and 460k steps, and rss_peak_mb includes the grown map.
	wireWarmup = 5 * time.Second
)

// countingListener counts every byte the server reads and writes.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{nc, l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}

// wireRig is one server on loopback with one producer and one consumer
// connection.
type wireRig struct {
	srv   *remote.Server
	prod  *remote.Producer
	cons  *remote.Consumer
	bytes atomic.Int64
}

// dialRig starts the server and dials both connections, returning the
// set-up time (listen to last dial) and the dial time alone.
func dialRig(c *runCtx) (*wireRig, time.Duration, time.Duration, error) {
	tr := c.log.threadTracer("main")
	r := &wireRig{}
	t0 := time.Now()
	tr.begin(spServer)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err == nil {
		r.srv, err = remote.NewServer(remote.ServerConfig{Listener: countingListener{ln, &r.bytes}}, wireChannel)
	}
	tr.end()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("server: %w", err)
	}
	t1 := time.Now()
	tr.begin(spDial)
	addr := r.srv.Addr()
	r.prod, err = remote.DialProducer(addr, wireChannel)
	if err == nil {
		r.cons, err = remote.DialConsumerConfig(remote.DialConfig{Addr: addr, Channel: wireChannel, GetTimeout: wireGetTimeout})
	}
	tr.end()
	t2 := time.Now()
	if err != nil {
		r.close()
		return nil, 0, 0, fmt.Errorf("dial: %w", err)
	}
	return r, t2.Sub(t0), t2.Sub(t1), nil
}

func (r *wireRig) close() {
	if r.prod != nil {
		r.prod.Close()
	}
	if r.cons != nil {
		r.cons.Close()
	}
	r.srv.Close()
}

// runRemoteLoopback drives the gob wire in lockstep: Put a 1 KiB item,
// then GetLatest it back, checking timestamp and bytes every time.
func runRemoteLoopback(c *runCtx) error {
	rep := c.rep
	rng := rand.New(rand.NewPCG(uint64(c.seed), 0x3e3073))
	blocks := make([][]byte, wireBlocks)
	for i := range blocks {
		blocks[i] = make([]byte, wireSize)
		for j := range blocks[i] {
			blocks[i][j] = byte(rng.Uint32())
		}
	}
	var setups, dials []float64
	var r *wireRig
	for i := 0; i < setupReps; i++ {
		rig, setup, dial, err := dialRig(c)
		if err != nil {
			return err
		}
		setups, dials = append(setups, setup.Seconds()), append(dials, dial.Seconds())
		if i < setupReps-1 {
			rig.close()
		} else {
			r = rig
		}
	}
	defer r.close()

	tr := c.log.threadTracer("main")
	sl := newSlicer(int(c.seconds / sliceEvery))
	putH, getH := newHist(), newHist()
	var win procWindow
	var puts, delivered, bytes0, w0, w1 int64
	warmEnd := time.Now().Add(wireWarmup)
	var nextCut time.Time
	for ts, open := int64(1), true; open; ts++ {
		if now := time.Now(); nextCut.IsZero() && !now.Before(warmEnd) {
			bytes0, w0 = r.bytes.Load(), c.log.now()
			win.start()
			sl.begin(delivered)
			nextCut = now.Add(sliceEvery)
		} else if !nextCut.IsZero() && !now.Before(nextCut) {
			nextCut = nextCut.Add(sliceEvery)
			open = sl.cut(delivered)
		}
		payload := blocks[ts%wireBlocks]
		t0 := nowNs()
		tr.begin(spRemotePut)
		_, err := r.prod.Put(vt.Timestamp(ts), payload, wireSize)
		tr.endN(1)
		t1 := nowNs()
		rep.attempted++
		if err != nil && !errors.Is(err, remote.ErrReattached) {
			rep.failed++
			rep.violate("put %d: %v", ts, err)
			break
		}
		puts++
		tr.begin(spRemoteGet)
		it, err := r.cons.GetLatest(core.Unknown)
		tr.endN(1)
		t2 := nowNs()
		rep.attempted++
		if err != nil && !errors.Is(err, remote.ErrReattached) {
			rep.failed++
			rep.violate("get after put %d: %v", ts, err)
			break
		}
		if int64(it.TS) != ts || it.Size != wireSize || !bytes.Equal(it.Payload, payload) {
			rep.violate("GetLatest after put %d returned timestamp %d (%d bytes, size %d), not the item just put", ts, it.TS, len(it.Payload), it.Size)
			break
		}
		delivered++
		if lat := sl.lat(); lat != nil {
			lat.add(t2 - t0)
			putH.add(t1 - t0)
			getH.add(t2 - t1)
		}
	}
	win.stop()
	w1 = c.log.now()
	if len(rep.violations) > 0 {
		return nil
	}
	items := sl.total
	wire := r.bytes.Load() - bytes0
	if err := sl.report(rep); err != nil {
		return err
	}
	for _, q := range []struct {
		name string
		h    *hist
		p    float64
	}{
		{"remote.put_us_p50", putH, 50}, {"remote.put_us_p99", putH, 99},
		{"remote.get_us_p50", getH, 50}, {"remote.get_us_p99", getH, 99},
	} {
		v, err := requireTail(q.h, q.p, q.name)
		if err != nil {
			return err
		}
		rep.set(q.name, v/1e3, "us", q.h.n)
	}
	rep.set("delivered_pct", 100*float64(delivered)/float64(puts), "%", 0)
	win.report(rep, float64(items), setups)
	rep.set("remote.wire_bytes_per_item", float64(wire)/float64(items), "B", 0)
	rep.set("remote.dial_ms", median(dials)*1e3, "ms", int64(len(dials)))
	rep.set("remote.reattaches", float64(r.prod.Reattaches()+r.cons.Reattaches()), "count", 0)
	if c.log == nil {
		return nil
	}
	set := c.log.collect()
	for l, ns := range layerSelf(set, w0, w1) {
		rep.set(l+".self_ns_per_item", float64(ns)/float64(items), "ns", 0)
	}
	return writeSpans(c, set)
}
