package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"coopabft/internal/cluster"
	"coopabft/internal/serve"
)

// workers is the pool size: vote R=3 and sharding both need three.
const workers = 3

// stack is the system under test, all in this process: three workers, each
// a serve.Service behind serve.NewHandler on its own loopback listener, and
// one cluster.Gateway over them behind cluster.NewHandler on a fourth.
// Library defaults everywhere else; batching stays off because a 2 ms batch
// window would turn the wire workload into a timer reading.
type stack struct {
	svcs    []*serve.Service
	gw      *cluster.Gateway
	servers []*http.Server // workers first, the gateway's last
	nodeURL []string
	gwURL   string
}

// listen serves h on a fresh loopback port and returns its base URL.
func (st *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	st.servers = append(st.servers, srv)
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed at Shutdown
	return "http://" + ln.Addr().String(), nil
}

// newStack builds and starts the stack and waits until the gateway answers
// its health probe.
func newStack(seed uint64) (*stack, error) {
	st := &stack{}
	nodes := make([]cluster.NodeConfig, workers)
	for i := range nodes {
		svc := serve.New(serve.Config{Parallelism: 1})
		st.svcs = append(st.svcs, svc)
		u, err := st.listen(serve.NewHandler(svc))
		if err != nil {
			st.close()
			return nil, err
		}
		st.nodeURL = append(st.nodeURL, u)
		nodes[i] = cluster.NodeConfig{ID: fmt.Sprintf("w%d", i), BaseURL: u}
	}
	gw, err := cluster.New(cluster.Config{Nodes: nodes, Seed: seed})
	if err != nil {
		st.close()
		return nil, err
	}
	st.gw = gw
	if st.gwURL, err = st.listen(cluster.NewHandler(gw)); err != nil {
		st.close()
		return nil, err
	}
	gw.SetSelfURL(st.gwURL) // long jobs stream their checkpoints back here
	if err := waitReady(st.gwURL); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func waitReady(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway %s not ready: %v", base, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// close tears the stack down front to back and returns once every goroutine
// it owns has exited. The gateway closes before the workers' servers shut
// down: its event watchers hold a stream open on every worker, and Shutdown
// waits for open connections.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if st.gwURL != "" {
		_ = st.servers[workers].Shutdown(ctx) // best effort: this process is the only client
	}
	if st.gw != nil {
		st.gw.Close()
	}
	for i := 0; i < len(st.servers) && i < workers; i++ {
		_ = st.servers[i].Shutdown(ctx)
	}
	for _, svc := range st.svcs {
		svc.Close()
	}
	http.DefaultClient.CloseIdleConnections()
}

// client is one closed-loop caller: its own http.Client and connection.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 4},
		Timeout:   time.Minute,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one POST's classified result as the caller sees it.
type reply struct {
	resp      serve.Response
	status    int   // 0 on transport error
	err       error // transport or decode error
	reqBytes  int
	respBytes int
}

// post sends req to base's /v1/<kernel> and decodes the Response.
func (c *client) post(base string, req serve.Request) reply {
	body, err := json.Marshal(req)
	if err != nil {
		return reply{err: err}
	}
	r := reply{reqBytes: len(body)}
	hresp, err := c.hc.Post(base+"/v1/"+req.Kernel, "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	defer hresp.Body.Close()
	r.status = hresp.StatusCode
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, hresp.Body); err != nil {
		r.status, r.err = 0, err // the reply never arrived whole: a transport error
		return r
	}
	r.respBytes = c.buf.Len()
	if r.status == http.StatusOK {
		r.err = json.Unmarshal(c.buf.Bytes(), &r.resp)
	}
	return r
}

// verdict sorts a reply into the benchmark's three classes.
type verdict int

const (
	answered verdict = iota // classified corrected|restarted, echo matches the request
	failed                  // transport error, typed rejection, or aborted
	wrong                   // a 200 outside the taxonomy: the one thing that must never happen
)

func classify(req serve.Request, r reply) verdict {
	if r.status != http.StatusOK {
		return failed
	}
	if r.err != nil {
		return wrong // a 200 whose body is not a Response
	}
	size := req.N
	if req.Kernel == "cg" {
		size = req.NX * req.NY
	}
	if r.resp.Kernel != req.Kernel || r.resp.N != size || r.resp.Dtype != req.Dtype {
		return wrong
	}
	switch r.resp.Outcome {
	case "corrected", "restarted":
		return answered
	case "aborted":
		return failed
	default:
		return wrong
	}
}
