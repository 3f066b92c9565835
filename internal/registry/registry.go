// Package registry models container image registries (Docker Hub, GCR, and
// an in-network private registry) and the client side of the pull protocol.
//
// An image is a manifest plus content-addressed layers. Pull time is
// composed exactly of the factors the paper's fig. 13 discusses: a manifest
// round trip (auth/token handshake folded into a per-request service
// latency), per-layer blob requests with registry-side service latency,
// layer transfer over the shared network links (bandwidth fair-shared with
// other traffic), and local verification/extraction proportional to layer
// size. Layers already present locally are skipped, which reproduces the
// paper's observation that popular base layers shared with cached images
// shorten subsequent pulls.
package registry

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
)

// Port is the registry service port.
const Port = 443

// Layer is one content-addressed image layer.
type Layer struct {
	Digest string
	Size   simnet.Bytes
}

// Image is a named (ref) container image: an ordered list of layers.
type Image struct {
	// Ref is the full image reference, e.g. "nginx:1.23.2" or
	// "gcr.io/tensorflow-serving/resnet".
	Ref    string
	Layers []Layer
}

// TotalSize returns the sum of all layer sizes.
func (img Image) TotalSize() simnet.Bytes {
	var s simnet.Bytes
	for _, l := range img.Layers {
		s += l.Size
	}
	return s
}

// Manifest is what a manifest request returns: the layer list.
type Manifest struct {
	Ref    string
	Layers []Layer
}

// Errors returned by pulls.
var (
	ErrUnknownImage    = errors.New("registry: unknown image")
	ErrUnknownBlob     = errors.New("registry: unknown blob")
	ErrUnknownRegistry = errors.New("registry: no registry for image reference")
)

// ServerConfig models registry-side service characteristics.
type ServerConfig struct {
	// ManifestLatency is the server-side latency of a manifest request
	// (covers auth token round trips and manifest assembly).
	ManifestLatency time.Duration
	// BlobLatency is the server-side latency before a blob transfer starts
	// (TLS, redirect to blob storage).
	BlobLatency time.Duration
}

// Server is a registry service running on a simnet host.
type Server struct {
	Host   *simnet.Host
	cfg    ServerConfig
	images map[string]Image
	blobs  map[string]Layer
	// Pulls counts blob requests per digest (diagnostics).
	Pulls map[string]int
}

// NewServer installs a registry service on h.
func NewServer(h *simnet.Host, cfg ServerConfig) *Server {
	s := &Server{
		Host:   h,
		cfg:    cfg,
		images: make(map[string]Image),
		blobs:  make(map[string]Layer),
		Pulls:  make(map[string]int),
	}
	h.ServeHTTPAsync(Port, s.handle)
	return s
}

// Add publishes an image (and its layers) to the registry.
func (s *Server) Add(img Image) {
	s.images[img.Ref] = img
	for _, l := range img.Layers {
		s.blobs[l.Digest] = l
	}
}

// Remove unpublishes an image ref; subsequent manifest requests 404. Blobs
// are left in place: layers may be shared with other images.
func (s *Server) Remove(ref string) {
	delete(s.images, ref)
}

// Images returns the published image refs (sorted, diagnostic).
func (s *Server) Images() []string {
	return slices.Sorted(maps.Keys(s.images))
}

// handle answers one request after its service latency.
func (s *Server) handle(c *simnet.HTTPServerConn, req *simnet.HTTPRequest) {
	switch {
	case strings.HasPrefix(req.Path, "/v2/manifests/"):
		ref := strings.TrimPrefix(req.Path, "/v2/manifests/")
		img, ok := s.images[ref]
		if !ok {
			c.Respond(&simnet.HTTPResponse{Status: 404})
			return
		}
		c.RespondAfter(s.cfg.ManifestLatency, &simnet.HTTPResponse{
			Status: 200,
			Size:   4 * simnet.KiB,
			Body:   &Manifest{Ref: img.Ref, Layers: append([]Layer(nil), img.Layers...)},
		})
	case strings.HasPrefix(req.Path, "/v2/blobs/"):
		digest := strings.TrimPrefix(req.Path, "/v2/blobs/")
		l, ok := s.blobs[digest]
		if !ok {
			c.Respond(&simnet.HTTPResponse{Status: 404})
			return
		}
		s.Pulls[digest]++
		c.RespondAfter(s.cfg.BlobLatency, &simnet.HTTPResponse{Status: 200, Size: l.Size, Body: l})
	default:
		c.Respond(&simnet.HTTPResponse{Status: 400})
	}
}

// Resolver maps image references to the registry host serving them, the way
// a container runtime resolves "nginx:..." to Docker Hub and
// "gcr.io/..." to GCR. Longest matching prefix wins; the empty prefix is
// the default registry.
type Resolver struct {
	prefixes map[string]simnet.Addr
}

// NewResolver returns an empty resolver.
func NewResolver() *Resolver {
	return &Resolver{prefixes: make(map[string]simnet.Addr)}
}

// AddPrefix routes image refs starting with prefix to the registry at addr.
func (r *Resolver) AddPrefix(prefix string, addr simnet.Addr) {
	r.prefixes[prefix] = addr
}

// Resolve returns the registry address for ref.
func (r *Resolver) Resolve(ref string) (simnet.Addr, error) {
	best := ""
	found := false
	var addr simnet.Addr
	for p, a := range r.prefixes {
		if strings.HasPrefix(ref, p) && (len(p) > len(best) || !found) {
			if len(p) >= len(best) {
				best, addr, found = p, a, true
			}
		}
	}
	if !found {
		return "", fmt.Errorf("%w: %q", ErrUnknownRegistry, ref)
	}
	return addr, nil
}

// ClientConfig models the pulling side (containerd defaults).
type ClientConfig struct {
	// MaxConcurrentDownloads caps parallel blob downloads per pull
	// (containerd/docker default: 3).
	MaxConcurrentDownloads int
	// UnpackRate is the local layer verification+extraction throughput.
	UnpackRate simnet.BitsPerSec
	// UnpackPerLayer is a fixed per-layer unpack overhead.
	UnpackPerLayer time.Duration
	// RequestTimeout bounds each registry request (manifest or blob); an
	// unreachable registry fails the pull instead of hanging the
	// deployment forever. Zero means 90 seconds.
	RequestTimeout time.Duration
}

// DefaultClientConfig mirrors containerd defaults on server-class hardware.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		MaxConcurrentDownloads: 3,
		UnpackRate:             2400 * simnet.Mbps, // ~300 MB/s sequential unpack
		UnpackPerLayer:         15 * time.Millisecond,
		RequestTimeout:         90 * time.Second,
	}
}

// Client pulls images onto one node, deduplicating layers via a local
// content store shared by every runtime on the node (the paper's EGS runs
// Docker and Kubernetes over the same containerd).
type Client struct {
	host     *simnet.Host
	resolver *Resolver
	cfg      ClientConfig
	layers   map[string]bool // digest -> present
	images   map[string]Image
	// PullCount counts completed image pulls (diagnostics).
	PullCount int
}

// NewClient returns a pull client for the given host.
func NewClient(h *simnet.Host, r *Resolver, cfg ClientConfig) *Client {
	if cfg.MaxConcurrentDownloads <= 0 {
		cfg.MaxConcurrentDownloads = 3
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 90 * time.Second
	}
	return &Client{
		host:     h,
		resolver: r,
		cfg:      cfg,
		layers:   make(map[string]bool),
		images:   make(map[string]Image),
	}
}

// HasImage reports whether ref has been fully pulled (manifest and all
// layers present).
func (c *Client) HasImage(ref string) bool {
	img, ok := c.images[ref]
	if !ok {
		return false
	}
	for _, l := range img.Layers {
		if !c.layers[l.Digest] {
			return false
		}
	}
	return true
}

// HasLayer reports whether a layer digest is in the local content store.
func (c *Client) HasLayer(digest string) bool { return c.layers[digest] }

// Image returns the locally known image for ref.
func (c *Client) Image(ref string) (Image, bool) {
	img, ok := c.images[ref]
	return img, ok
}

// RemoveImage drops the manifest and any layers not referenced by another
// cached image (the optional Delete phase of fig. 4).
func (c *Client) RemoveImage(ref string) {
	img, ok := c.images[ref]
	if !ok {
		return
	}
	delete(c.images, ref)
	for _, l := range img.Layers {
		referenced := false
		for _, other := range c.images {
			for _, ol := range other.Layers {
				if ol.Digest == l.Digest {
					referenced = true
				}
			}
		}
		if !referenced {
			delete(c.layers, l.Digest)
		}
	}
}

// Pull fetches ref: manifest, missing layers (bounded concurrency), unpack.
// It blocks the calling process for the full pull duration and is safe to
// call concurrently from many processes (downloads contend on the links).
func (c *Client) Pull(p *sim.Proc, ref string) error {
	addr, err := c.resolver.Resolve(ref)
	if err != nil {
		return err
	}
	res, err := c.host.HTTPGet(p, addr, Port, &simnet.HTTPRequest{
		Method: "GET",
		Path:   "/v2/manifests/" + ref,
		Size:   1 * simnet.KiB,
	}, c.cfg.RequestTimeout)
	if err != nil {
		return fmt.Errorf("registry: manifest %s: %w", ref, err)
	}
	if res.Resp.Status != 200 {
		return fmt.Errorf("%w: %q", ErrUnknownImage, ref)
	}
	man := res.Resp.Body.(*Manifest)

	var missing []Layer
	for _, l := range man.Layers {
		if !c.layers[l.Digest] {
			missing = append(missing, l)
		}
	}

	// Download missing layers with bounded concurrency.
	k := c.host.Network().K
	wg := sim.NewWaitGroup(k)
	var firstErr error
	slots := c.cfg.MaxConcurrentDownloads
	queue := sim.NewChan[Layer](k)
	for _, l := range missing {
		queue.Send(l)
	}
	queue.Close()
	wg.Add(slots)
	for i := 0; i < slots; i++ {
		k.Go(fmt.Sprintf("pull:%s:worker%d", ref, i), func(wp *sim.Proc) {
			defer wg.Done()
			for {
				l, ok := queue.Recv(wp)
				if !ok {
					return
				}
				r, err := c.host.HTTPGet(wp, addr, Port, &simnet.HTTPRequest{
					Method: "GET",
					Path:   "/v2/blobs/" + l.Digest,
					Size:   512,
				}, c.cfg.RequestTimeout)
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				if r.Resp.Status != 200 {
					if firstErr == nil {
						firstErr = fmt.Errorf("%w: %s", ErrUnknownBlob, l.Digest)
					}
					return
				}
				// Verify + unpack locally (serialized per worker).
				unpack := c.cfg.UnpackPerLayer
				if c.cfg.UnpackRate > 0 {
					unpack += time.Duration(float64(l.Size*8) / float64(c.cfg.UnpackRate) * float64(time.Second))
				}
				wp.Sleep(unpack)
				c.layers[l.Digest] = true
			}
		})
	}
	wg.Wait(p)
	if firstErr != nil {
		return firstErr
	}
	c.images[ref] = Image{Ref: man.Ref, Layers: man.Layers}
	c.PullCount++
	return nil
}
