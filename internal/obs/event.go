package obs

import "fmt"

// EventKind enumerates the controller's structured events. Event.String
// formats each kind as one log line (what the examples print).
type EventKind uint8

const (
	// EvRegistered: a service was registered at its VIP (Service, Addr, Port).
	EvRegistered EventKind = iota + 1
	// EvDispatched: a request was redirected to an edge instance
	// (Service, Client, Cluster, Addr, Port).
	EvDispatched
	// EvCloudForward: no edge location could serve; forwarded to the cloud
	// (Service, Client).
	EvCloudForward
	// EvDeployFailed: the chosen cluster failed after retries; the
	// dispatcher walks next-best candidates (Service, Cluster, Err).
	EvDeployFailed
	// EvAllEdgeFailed: every edge candidate failed; forwarding to the
	// cloud (Service, Client, Err).
	EvAllEdgeFailed
	// EvFallbackFailed / EvFallbackOK: one next-best candidate's outcome
	// (Service, Cluster, Err on failure).
	EvFallbackFailed
	EvFallbackOK
	// EvBackgroundFailed: the fig. 3 background BEST deployment failed
	// (Service, Cluster, Err).
	EvBackgroundFailed
	// EvOptimalReady: the background BEST instance is ready and N flows
	// were re-pointed (Service, Cluster, Addr, Port, N).
	EvOptimalReady
	// EvScaleDownFailed / EvScaledDown: idle-instance scale-down outcome
	// (Service, Cluster, Err on failure).
	EvScaleDownFailed
	EvScaledDown
	// EvRedeployFailed / EvRedeployed: redeploy after an interrupted
	// scale-down (Service, Cluster, Err on failure).
	EvRedeployFailed
	EvRedeployed
	// EvProactiveDeploy / EvProactiveFailed: predictor-initiated deployment
	// outcome (Service, Cluster, Err on failure).
	EvProactiveDeploy
	EvProactiveFailed
	// EvHandover: a client moved to a new attachment point (Client, Addr =
	// the new switch's name, N = memorized flows re-anchored eagerly — zero
	// for rule-based backends, which re-anchor lazily at the next packet-in).
	EvHandover
)

// Event is one structured controller event. Field meaning varies by Kind
// (see the kind constants); unused fields are zero.
type Event struct {
	Kind EventKind
	// Service / Cluster / Client / Addr name the involved parties (Addr is
	// an instance or VIP address rendered as a string).
	Service string
	Cluster string
	Client  string
	Addr    string
	// Port accompanies Addr; N is a count (redirected flows).
	Port int
	N    int
	// Err is the failure for the *Failed kinds.
	Err error
}

// String formats the event as one log line; example_test.go pins the
// wording.
func (e Event) String() string {
	switch e.Kind {
	case EvRegistered:
		return fmt.Sprintf("registered service %s at %s:%d", e.Service, e.Addr, e.Port)
	case EvDispatched:
		return fmt.Sprintf("%s: %s -> %s (%s:%d)", e.Service, e.Client, e.Cluster, e.Addr, e.Port)
	case EvCloudForward:
		return fmt.Sprintf("%s: %s -> cloud (no instance available)", e.Service, e.Client)
	case EvDeployFailed:
		return fmt.Sprintf("%s: deployment on %s failed (%v); trying next-best clusters", e.Service, e.Cluster, e.Err)
	case EvAllEdgeFailed:
		return fmt.Sprintf("%s: all edge deployments failed (%v); forwarding %s to cloud", e.Service, e.Err, e.Client)
	case EvFallbackFailed:
		return fmt.Sprintf("%s: fallback deployment on %s failed: %v", e.Service, e.Cluster, e.Err)
	case EvFallbackOK:
		return fmt.Sprintf("%s: fallback deployment on %s succeeded", e.Service, e.Cluster)
	case EvBackgroundFailed:
		return fmt.Sprintf("%s: background deployment on %s failed: %v", e.Service, e.Cluster, e.Err)
	case EvOptimalReady:
		return fmt.Sprintf("%s: optimal instance ready on %s (%s:%d); redirected %d flows", e.Service, e.Cluster, e.Addr, e.Port, e.N)
	case EvScaleDownFailed:
		return fmt.Sprintf("%s: scale-down on %s failed: %v", e.Service, e.Cluster, e.Err)
	case EvScaledDown:
		return fmt.Sprintf("%s: scaled down on %s (idle)", e.Service, e.Cluster)
	case EvRedeployFailed:
		return fmt.Sprintf("%s: redeploy after interrupted scale-down failed: %v", e.Service, e.Err)
	case EvRedeployed:
		return fmt.Sprintf("%s: redeployed on %s after interrupted scale-down", e.Service, e.Cluster)
	case EvProactiveDeploy:
		return fmt.Sprintf("%s: proactive deployment to %s (predicted demand)", e.Service, e.Cluster)
	case EvProactiveFailed:
		return fmt.Sprintf("%s: proactive deployment failed: %v", e.Service, e.Err)
	case EvHandover:
		return fmt.Sprintf("handover: %s -> %s (%d flows re-anchored)", e.Client, e.Addr, e.N)
	}
	return fmt.Sprintf("event(kind=%d)", e.Kind)
}
