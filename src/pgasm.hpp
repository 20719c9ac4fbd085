// Umbrella header: the entire PGASM public API.
//
// Most users only need pipeline/pipeline.hpp (the end-to-end driver) or
// core/ + gst/ for the clustering framework alone.
#pragma once

#include "align/overlap.hpp"
#include "align/pairwise.hpp"
#include "align/workspace.hpp"
#include "core/cluster_params.hpp"
#include "core/consistency.hpp"
#include "core/parallel_cluster.hpp"
#include "core/serial_cluster.hpp"
#include "gst/pair_generator.hpp"
#include "gst/parallel_build.hpp"
#include "gst/suffix_tree.hpp"
#include "olc/assembler.hpp"
#include "olc/layout.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/validation.hpp"
#include "preprocess/preprocess.hpp"
#include "preprocess/repeat_masker.hpp"
#include "seq/fasta.hpp"
#include "seq/fragment_store.hpp"
#include "sim/community.hpp"
#include "sim/genome.hpp"
#include "sim/reads.hpp"
#include "util/flags.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "util/union_find.hpp"
#include "vmpi/runtime.hpp"
