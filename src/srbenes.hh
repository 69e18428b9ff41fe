/**
 * @file
 * Umbrella header: the public surface of the self-routing Benes
 * library in one include. Applications (and the examples/ tree)
 * should prefer this over reaching into subdirectory headers.
 *
 * Stability tiers:
 *
 *  STABLE -- covered by the deprecation policy (a superseded
 *  signature keeps compiling for one release as a documented shim
 *  before it is removed):
 *
 *   - perm/       Permutation, BPC/linear/omega/F classification,
 *                 composition, cycle structure, named families;
 *   - core/       SelfRoutingBenes (the paper's fabric) and the
 *                 setup algorithms (waksman, two_pass,
 *                 parallel_setup), the fault model (faults.hh), the
 *                 unified outcome taxonomy (route_outcome.hh), the
 *                 planning Router, the SetupEngine, the
 *                 ResilientRouter serving layer, and the
 *                 StreamEngine;
 *   - networks/   the PermutationNetwork comparison interface and
 *                 every adapter behind allNetworks();
 *   - packet/     the packet-switched Fabric and the TrafficSource
 *                 matrices;
 *   - obs/        metrics registry, exporters, tracing.
 *
 *  INTERNAL -- reachable but NOT part of the stable surface; shapes
 *  may change without deprecation: core/fast_engine.hh and
 *  core/fast_kernels.hh (bit-sliced engine internals),
 *  core/half_network.hh, simd/ machine models, gates/, and
 *  everything under common/. Include those headers directly when you
 *  opt into the churn.
 */

#ifndef SRBENES_SRBENES_HH
#define SRBENES_SRBENES_HH

// Permutations and their classification.
#include "perm/bpc.hh"
#include "perm/classify.hh"
#include "perm/compose.hh"
#include "perm/cycles.hh"
#include "perm/f_class.hh"
#include "perm/f_diagnosis.hh"
#include "perm/linear.hh"
#include "perm/named_bpc.hh"
#include "perm/omega_class.hh"
#include "perm/permutation.hh"

// The fabric, its setup algorithms, and the serving layers.
#include "core/faults.hh"
#include "core/parallel_setup.hh"
#include "core/partial.hh"
#include "core/pipeline.hh"
#include "core/render.hh"
#include "core/resilient.hh"
#include "core/route_outcome.hh"
#include "core/router.hh"
#include "core/self_routing.hh"
#include "core/setup_engine.hh"
#include "core/state_io.hh"
#include "core/stats.hh"
#include "core/stream.hh"
#include "core/topology.hh"
#include "core/two_pass.hh"
#include "core/waksman.hh"
#include "core/waksman_reduced.hh"

// Comparison fabrics behind the uniform interface.
#include "networks/batcher.hh"
#include "networks/benes_adapter.hh"
#include "networks/crossbar.hh"
#include "networks/gcn.hh"
#include "networks/multicast.hh"
#include "networks/network_iface.hh"
#include "networks/odd_even.hh"
#include "networks/omega_network.hh"

// Packet-switched operation under non-permutation traffic.
#include "packet/fabric.hh"
#include "packet/traffic.hh"

// Observability.
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

// Supporting utilities the public headers already lean on.
#include "common/prng.hh"
#include "common/table.hh"

#endif // SRBENES_SRBENES_HH
