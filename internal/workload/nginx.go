package workload

import (
	"errors"

	"repro/internal/cap"
	"repro/internal/core"
	"repro/internal/m3fs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The Nginx server benchmark (paper §5.3.3): webserver processes replay a
// recorded per-request trace (stat, open, read, close on the served file)
// whenever a request arrives. Load-generator PEs — standing in for network
// interfaces, like the paper's ab-style setup — fire requests at the
// servers in a closed loop. The metric is aggregate requests per second.

// NginxConfig describes one server-benchmark run.
type NginxConfig struct {
	Kernels  int
	Services int
	Servers  int
	// Duration is the measurement window in cycles (default 10 ms).
	Duration sim.Duration
	// Engine, when non-nil, is a fresh (or Reset) simulation engine to build
	// the experiment on; see core.Config.Engine.
	Engine *sim.Engine
}

func (c NginxConfig) withDefaults() NginxConfig {
	if c.Duration == 0 {
		c.Duration = 20_000_000 // 10 ms at 2 GHz
	}
	return c
}

const (
	// docBytes is the static file size served per request.
	docBytes = 8 << 10
	// requestCompute is the per-request HTTP processing time in cycles
	// (≈ 30 µs, from the shape of the paper's Figure 10).
	requestCompute sim.Duration = 60_000
)

// NginxResult is the outcome of one server-benchmark run.
type NginxResult struct {
	Config   NginxConfig
	Requests uint64
	Duration sim.Duration
	// TotalCapOps sums the capability operations of all VPEs over the whole
	// run (setup, warmup and measurement window).
	TotalCapOps uint64
}

// serverRgateEP is the server-side receive endpoint for HTTP requests.
const serverRgateEP = 11

// RunNginx executes the server benchmark.
func RunNginx(cfg NginxConfig) (*NginxResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Kernels <= 0 || cfg.Services <= 0 || cfg.Servers <= 0 {
		return nil, errors.New("workload: kernels, services, servers must be positive")
	}
	userPEs := cfg.Services + 2*cfg.Servers // servers + load generators
	imageBytes := uint64(cfg.Servers)*(docBytes+1<<20) + 16<<20

	sys, err := core.NewSystem(core.Config{
		Kernels:  cfg.Kernels,
		UserPEs:  userPEs,
		MemPEs:   1 + cfg.Services/8,
		MemBytes: int(imageBytes)*cfg.Services + (64 << 20),
		Engine:   cfg.Engine,
	})
	if err != nil {
		return nil, err
	}
	defer sys.Close()

	pl := place(sys, cfg.Services, 2*cfg.Servers)

	// Services, each preloaded with the doc roots of every server (servers
	// may be served by any instance depending on placement; preloading all
	// roots in each image keeps placement flexible).
	var allReady sim.WaitGroup
	allReady.Add(cfg.Services)
	preload := func(fs *m3fs.FS) {
		fs.Reserve(cfg.Servers, cfg.Servers*fs.ExtentsFor(docBytes))
		for i := 0; i < cfg.Servers; i++ {
			root := "srv" + trace.Itoa(i)
			fs.MustMkdirAllIn("", root, 1)
			fs.MustCreateIn(root, "index.html", docBytes)
		}
	}
	for j := 0; j < cfg.Services; j++ {
		ready := sim.NewFuture[*m3fs.FS](sys.Eng)
		ready.OnComplete(func(*m3fs.FS) { allReady.Done() })
		pe, err := pl.takePE(pl.svcGroup[j])
		if err != nil {
			return nil, err
		}
		fscfg := m3fs.Config{ServiceName: svcName(j), ImageBytes: imageBytes}
		if _, err := sys.SpawnOn(pe, svcName(j), m3fs.Program(fscfg, preload, ready)); err != nil {
			return nil, err
		}
	}

	// Servers: set up an rgate, publish its selector, then serve requests.
	type serverInfo struct {
		vpe  *core.VPE
		gate cap.Selector
	}
	gates := make([]*sim.Future[serverInfo], cfg.Servers)
	requests := make([]uint64, cfg.Servers)
	for i := 0; i < cfg.Servers; i++ {
		i := i
		gates[i] = sim.NewFuture[serverInfo](sys.Eng)
		g := i % cfg.Kernels
		pe, err := pl.takePE(g)
		if err != nil {
			return nil, err
		}
		svc := svcName(pl.svcOfGroup[g])
		doc := "srv" + trace.Itoa(i) + "/index.html"
		prog := func(v *core.VPE, p *sim.Proc) {
			allReady.Wait(p)
			client, err := m3fs.Dial(p, v, svc)
			if err != nil {
				panic(err)
			}
			gateSel, err := v.CreateRgate(p, serverRgateEP, 0)
			if err != nil {
				panic(err)
			}
			gates[i].Complete(serverInfo{vpe: v, gate: gateSel})
			for {
				m := v.DTU().Wait(p, serverRgateEP)
				p.Sleep(requestCompute)
				// Per-request file activity, as in the recorded trace:
				// stat, open, read the document, close (revoking).
				if _, err := client.Stat(p, doc); err != nil {
					panic(err)
				}
				f, err := client.Open(p, doc, false, false)
				if err != nil {
					panic(err)
				}
				if _, err := f.Read(p, docBytes); err != nil {
					panic(err)
				}
				if err := f.Close(p, true); err != nil {
					panic(err)
				}
				requests[i]++
				v.DTU().Reply(m, "200 OK", 128)
			}
		}
		if _, err := sys.SpawnOn(pe, "nginx-"+trace.Itoa(i), prog); err != nil {
			return nil, err
		}
	}

	// Load generators: one per server, closed loop.
	const loadgenSendEP = 12
	for i := 0; i < cfg.Servers; i++ {
		i := i
		g := i % cfg.Kernels
		pe, err := pl.takePE(g)
		if err != nil {
			return nil, err
		}
		prog := func(v *core.VPE, p *sim.Proc) {
			info := gates[i].Wait(p)
			sendSel, err := v.ObtainFrom(p, info.vpe.ID, info.gate)
			if err != nil {
				panic(err)
			}
			if err := v.Activate(p, sendSel, loadgenSendEP); err != nil {
				panic(err)
			}
			for {
				if err := v.DTU().Send(loadgenSendEP, "GET /index.html", 256, vpeServiceReplyEPForLoadgen, 0); err != nil {
					panic(err)
				}
				m := v.DTU().Wait(p, vpeServiceReplyEPForLoadgen)
				v.DTU().Ack(m)
			}
		}
		if _, err := sys.SpawnOn(pe, "loadgen-"+trace.Itoa(i), prog); err != nil {
			return nil, err
		}
	}

	// Warm up (setup + first requests), then measure a fixed window.
	sys.RunFor(cfg.Duration / 2)
	var before uint64
	for _, n := range requests {
		before += n
	}
	start := sys.Now()
	sys.RunFor(cfg.Duration)
	var after uint64
	for _, n := range requests {
		after += n
	}
	var capOps uint64
	for _, v := range sys.VPEs() {
		capOps += v.CapOps()
	}
	return &NginxResult{Config: cfg, Requests: after - before, Duration: sys.Now() - start, TotalCapOps: capOps}, nil
}

// vpeServiceReplyEPForLoadgen is the load generator's reply endpoint (the
// standard service-reply endpoint is unused by load generators).
const vpeServiceReplyEPForLoadgen = 3
