package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"

	"pops"
	"pops/internal/cluster"
	"pops/internal/service"
)

// httpServer is one handler behind a loopback listener.
type httpServer struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &httpServer{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

// close tears the server down at once. Callers close only after every
// request they sent has been answered; a graceful Shutdown would instead
// wait five seconds for any connection a transport dialed but never used.
func (s *httpServer) close() {
	s.srv.Close()
	<-s.done
}

// node is one service with its default configuration, served over HTTP.
type node struct {
	svc  *service.Service
	http *httpServer
}

func startNode() (*node, error) {
	svc := service.New(service.Config{})
	h, err := listen(svc.Handler())
	if err != nil {
		svc.Close()
		return nil, err
	}
	return &node{svc: svc, http: h}, nil
}

func (n *node) close() {
	n.http.close()
	n.svc.Close()
}

// stack is the serving stack a workload drives: one node, or a proxy with
// its default configuration in front of two nodes.
type stack struct {
	nodes []*node
	proxy *cluster.Proxy
	front *httpServer
}

func startStack(proxied bool) (_ *stack, err error) {
	st := &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	count := 1
	if proxied {
		count = 2
	}
	var urls []string
	for i := 0; i < count; i++ {
		n, err := startNode()
		if err != nil {
			return nil, err
		}
		st.nodes = append(st.nodes, n)
		urls = append(urls, n.http.url)
	}
	if !proxied {
		st.front = st.nodes[0].http
		return st, nil
	}
	if st.proxy, err = cluster.New(cluster.Config{Backends: urls}); err != nil {
		return nil, err
	}
	if st.front, err = listen(st.proxy.Handler()); err != nil {
		return nil, err
	}
	return st, nil
}

func (st *stack) close() {
	if st.proxy != nil {
		if st.front != nil {
			st.front.close()
		}
		st.proxy.Close()
	}
	for _, n := range st.nodes {
		n.close()
	}
}

// shardsReady reports whether every node has created its planner shard.
func (st *stack) shardsReady() bool {
	for _, n := range st.nodes {
		if n.svc.Stats().ShardCount == 0 {
			return false
		}
	}
	return true
}

// maxConns is the load generator's connection and in-flight bound.
const maxConns = 2

// client is a ServiceClient over its own transport of at most maxConns
// connections; counted, when set, tallies response body bytes.
type client struct {
	*pops.ServiceClient
	tr      *http.Transport
	counted *atomic.Int64
}

func newClient(url string, codec pops.ServiceCodec, countBytes bool) *client {
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true}
	c := &client{tr: tr}
	var rt http.RoundTripper = tr
	if countBytes {
		c.counted = new(atomic.Int64)
		rt = countingTransport{next: tr, n: c.counted}
	}
	c.ServiceClient = pops.NewServiceClient(url, &http.Client{Transport: rt}).WithCodec(codec)
	return c
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// countingTransport counts the response body bytes its callers read.
type countingTransport struct {
	next http.RoundTripper
	n    *atomic.Int64
}

func (t countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.next.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: t.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
