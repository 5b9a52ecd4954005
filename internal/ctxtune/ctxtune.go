// Package ctxtune is the contextual tuning subsystem: it conditions the
// two-phase autotuner's algorithm choice on a per-request feature vector
// instead of forcing one global winner onto every input.
//
// The paper's Hybrid string matcher already picks by a single input
// feature (pattern length), and extension X4 showed a per-context tuner
// family halving total time on alternating traffic. This package
// promotes that idea to a first-class routing layer over the concurrent
// trial engine:
//
//   - Requests carry a Features vector — input size, alphabet/corpus
//     class, scene depth, whatever the workload can describe about the
//     input it is about to process. Features are plain float64s so they
//     cross the wire as an additive JSON field.
//   - A Partitioner maps features to a context ID. The Tree partitioner
//     starts from quantized hash buckets and refines online: when a
//     bucket's observed cost distribution is bimodal across a feature
//     threshold (min-samples and min-lift gated), the bucket splits into
//     two child contexts. Splits are journaled and replayed on resume,
//     so a restarted server rediscovers every context it had learned.
//   - An Engine maintains one selector replica per context: each
//     context gets its own lease-based trial engine whose selector is
//     warm-started from its own snapshot after a restart, else from the
//     global selector's state (ExportSelectorState/RestoreSelectorState),
//     so a newly discovered context does not relearn from scratch, and
//     every contextual completion folds back into the global selector
//     through Absorb.
//
// The tuned server routes feature-bearing LeaseN requests through this
// engine; requests without features land on the global context, so a
// client that sends none tunes as against a plain engine.
package ctxtune

// Features is a per-request feature vector. Nil or empty means "no
// features" and routes to the global context. It is a type alias so wire
// payloads ([]float64) pass through without conversion.
type Features = []float64

// GlobalContext is the context ID of feature-less traffic: the global
// engine itself, not a partitioned replica.
const GlobalContext = "g"
