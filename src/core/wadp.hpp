// Umbrella header: the public face of the wadp library.
//
// Include this to get the whole predictive framework — instrumented
// GridFTP simulation, the predictor battery and evaluation harness, the
// MDS-style delivery infrastructure, replica selection, and the paper's
// testbed/campaign reproductions.  Fine-grained headers remain available
// for targeted use.
#pragma once

#include "core/information_fabric.hpp"   // IWYU pragma: export
#include "core/prediction_service.hpp"   // IWYU pragma: export
#include "gridftp/client.hpp"            // IWYU pragma: export
#include "gridftp/log.hpp"               // IWYU pragma: export
#include "gridftp/protocol.hpp"          // IWYU pragma: export
#include "gridftp/record.hpp"            // IWYU pragma: export
#include "gridftp/server.hpp"            // IWYU pragma: export
#include "history/adapter.hpp"           // IWYU pragma: export
#include "history/store.hpp"             // IWYU pragma: export
#include "mds/giis.hpp"                  // IWYU pragma: export
#include "mds/gridftp_provider.hpp"      // IWYU pragma: export
#include "mds/gris.hpp"                  // IWYU pragma: export
#include "net/fabric.hpp"                // IWYU pragma: export
#include "net/path.hpp"                  // IWYU pragma: export
#include "nws/forecaster.hpp"            // IWYU pragma: export
#include "nws/sensor.hpp"                // IWYU pragma: export
#include "predict/crosssite.hpp"         // IWYU pragma: export
#include "predict/evaluator.hpp"         // IWYU pragma: export
#include "predict/extended.hpp"          // IWYU pragma: export
#include "predict/incremental.hpp"       // IWYU pragma: export
#include "predict/suite.hpp"             // IWYU pragma: export
#include "replica/broker.hpp"            // IWYU pragma: export
#include "replica/catalog.hpp"           // IWYU pragma: export
#include "replica/fetcher.hpp"           // IWYU pragma: export
#include "resilience/failover.hpp"       // IWYU pragma: export
#include "resilience/fault.hpp"          // IWYU pragma: export
#include "resilience/retry.hpp"          // IWYU pragma: export
#include "sim/simulator.hpp"             // IWYU pragma: export
#include "workload/campaign.hpp"         // IWYU pragma: export
#include "workload/prober.hpp"           // IWYU pragma: export
#include "workload/testbed.hpp"          // IWYU pragma: export
#include "workload/trace.hpp"            // IWYU pragma: export
