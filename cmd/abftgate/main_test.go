package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"coopabft/internal/cluster"
	"coopabft/internal/core"
	"coopabft/internal/serve"
	"coopabft/internal/serve/loadgen"
)

func TestParseNodes(t *testing.T) {
	cases := []struct {
		spec string
		want []cluster.NodeConfig
	}{
		{"http://a:1", []cluster.NodeConfig{{BaseURL: "http://a:1"}}},
		{" http://a:1 , ,http://b:2 ", []cluster.NodeConfig{{BaseURL: "http://a:1"}, {BaseURL: "http://b:2"}}},
		{"http://a:1=W_CK| p_ck+p_sd ,http://b:2", []cluster.NodeConfig{
			{BaseURL: "http://a:1", Strategies: []core.Strategy{core.WholeChipkill, core.PartialChipkillSECDED}},
			{BaseURL: "http://b:2"},
		}},
		{"", nil},
		{" , ", nil},
		{"http://a:1=", nil},
		{"http://a:1=W_CK|", nil},
		{"http://a:1=chipkill", nil},
		{"http://a:1,http://b:2=W_CK=P_CK", nil},
	}
	for _, tc := range cases {
		got, err := parseNodes(tc.spec)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseNodes(%q) = %+v, want an error", tc.spec, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseNodes(%q) = %+v, %v; want %+v", tc.spec, got, err, tc.want)
		}
	}
}

// TestServeGatewayAdvertisesBoundAddress: with no self URL configured, a
// gateway listening on port 0 hands workers the address its listener
// actually bound, so a CG long job streams checkpoints back, and it drains
// cleanly when its context ends. The -addr text ("127.0.0.1:0") names a
// port nobody listens on.
func TestServeGatewayAdvertisesBoundAddress(t *testing.T) {
	svc := serve.New(serve.Config{MaxConcurrency: 2, QueueDepth: 64, QueueTimeout: 30 * time.Second})
	worker := httptest.NewServer(serve.NewHandler(svc))
	defer func() { worker.Close(); svc.Close() }()

	m := &cluster.Metrics{}
	g, err := cluster.New(cluster.Config{
		Nodes:           []cluster.NodeConfig{{ID: "w0", BaseURL: worker.URL}},
		ProbeInterval:   -1,
		CheckpointEvery: 1,
		Metrics:         m,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serveGateway(ctx, g, ln, 10*time.Second) }()

	client := &loadgen.HTTPClient{Base: "http://" + ln.Addr().String()}
	if err := client.WaitReady(ctx, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	rep, err := loadgen.RunJobs(ctx, client, loadgen.JobsConfig{
		Kernel: "cg", NX: 12, NY: 12, Seed: 5, Poll: time.Millisecond, Timeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Gate(); err != nil {
		t.Fatal(err)
	}
	if st := rep.Jobs[0].Status; !st.Long || st.Checkpoints < 1 {
		t.Errorf("long=%v checkpoints=%d, want a long job with at least one checkpoint accepted", st.Long, st.Checkpoints)
	}
	if got := m.CheckpointsStored.Value(); got < 1 {
		t.Errorf("checkpoints_stored = %d, want >= 1", got)
	}
	if want := "http://" + ln.Addr().String(); g.SelfURL() != want {
		t.Errorf("self URL %q, want the bound address %q", g.SelfURL(), want)
	}

	// Shutdown gives a connection that was dialed and never used five seconds
	// to send something; the only clients are this process's, on the default
	// transport.
	http.DefaultClient.CloseIdleConnections()
	stop()
	if err := <-served; err != nil {
		t.Errorf("drain: %v", err)
	}
}
