package workload

import (
	"repro/internal/cap"
	"repro/internal/core"
	"repro/internal/m3fs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The Nginx server benchmark (paper §5.3.3): webserver processes replay a
// recorded per-request trace (trace.NginxRequest: stat, open, read, close
// on the served file) whenever a request arrives. Load-generator PEs —
// standing in for network interfaces, like the paper's ab-style setup —
// fire requests at the servers in a closed loop. The metric is aggregate
// requests per second.

// NginxConfig describes one server-benchmark run.
type NginxConfig struct {
	Kernels  int
	Services int
	Servers  int
	// Engine, when non-nil, is a fresh (or Reset) simulation engine to build
	// the experiment on; see core.Config.Engine.
	Engine *sim.Engine
}

// nginxWindow is the measurement window in cycles (10 ms at 2 GHz); half
// of it warms up first.
const nginxWindow sim.Duration = 20_000_000

// NginxResult is the outcome of one server-benchmark run.
type NginxResult struct {
	Requests uint64
	Duration sim.Duration
	// TotalCapOps sums the capability operations of all VPEs over the whole
	// run (setup, warmup and measurement window).
	TotalCapOps uint64
}

// The server's receive endpoint for requests, and the load generator's
// send endpoint for them and reply endpoint (the standard service-reply
// endpoint, which load generators do not use).
const serverRgateEP, loadgenSendEP, loadgenReplyEP = 11, 12, 3

// RunNginx executes the server benchmark. Each server and each load
// generator is one application PE, so the machine is that of a Config with
// 2×Servers instances; every service image holds every server's document
// root, so a server may be served by any service. After the window the load
// generators stop, the machine runs dry and its audit must find nothing.
func RunNginx(cfg NginxConfig) (*NginxResult, error) {
	app := Config{Kernels: cfg.Kernels, Services: cfg.Services, Instances: 2 * cfg.Servers, Trace: trace.NginxRequest(), Engine: cfg.Engine}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(app.machine())
	if err != nil {
		return nil, err
	}
	defer sys.Close()

	pl := place(sys, app.Services, app.Instances)
	roots := make([]string, cfg.Servers)
	for i := range roots {
		roots[i] = "srv" + trace.Itoa(i)
	}
	prefixes := make([][]string, app.Services)
	for j := range prefixes {
		prefixes[j] = roots
	}
	allReady, err := boot(sys, pl, app.Trace, prefixes)
	if err != nil {
		return nil, err
	}

	// Servers: set up an rgate, publish its selector, then replay the
	// request trace per request.
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
		prog := func(v *core.VPE, p *sim.Proc) {
			allReady.Wait(p)
			client, err := m3fs.Dial(p, v, svc)
			if err != nil {
				panic(err)
			}
			client.Prefix = roots[i]
			gateSel, err := v.CreateRgate(p, serverRgateEP, 0)
			if err != nil {
				panic(err)
			}
			gates[i].Complete(serverInfo{vpe: v, gate: gateSel})
			files := make([]*m3fs.File, slots(app.Trace))
			for {
				m := v.DTU().Wait(p, serverRgateEP)
				if err := replayOps(client, p, app.Trace, files); err != nil {
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

	// Load generators: one per server, closed loop until stopped.
	stop := false
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
			for !stop {
				if err := v.DTU().Send(loadgenSendEP, "GET /index.html", 256, loadgenReplyEP, 0); err != nil {
					panic(err)
				}
				m := v.DTU().Wait(p, loadgenReplyEP)
				v.DTU().Ack(m)
			}
		}
		if _, err := sys.SpawnOn(pe, "loadgen-"+trace.Itoa(i), prog); err != nil {
			return nil, err
		}
	}

	// Warm up (setup + first requests), then measure a fixed window.
	sys.RunFor(nginxWindow / 2)
	var before uint64
	for _, n := range requests {
		before += n
	}
	start := sys.Now()
	sys.RunFor(nginxWindow)
	res := &NginxResult{Duration: sys.Now() - start}
	for _, n := range requests {
		res.Requests += n
	}
	res.Requests -= before
	for _, v := range sys.VPEs() {
		res.TotalCapOps += v.CapOps()
	}

	// Drain: the requests in flight complete, the load generators exit and
	// the servers park for a request that does not come.
	stop = true
	sys.Run()
	if err := auditErr(sys.Audit()); err != nil {
		return nil, err
	}
	return res, nil
}
