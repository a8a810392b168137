// Compression flow: a Session with the EDT stage enabled encodes its
// deterministic cubes through the EDT-style compressor and reports the
// ATE vector-memory saving (the paper's conclusion: "Only using this
// technique the observed pattern count can be loaded into the ATE vector
// memory without truncation").
#include <iomanip>
#include <iostream>

#include "api/session.h"
#include "gen/socgen.h"

int main() {
  using namespace occ;
  std::cout << std::fixed << std::setprecision(2);

  gen::SocParams prm;
  prm.seed = 3;
  prm.flops = 160;
  prm.gates = 1600;

  // Transition patterns under the basic CPF scheme, 8 scan chains fed
  // from 2 external channels. compress() keeps the unfilled cubes (care
  // bits only) and runs the GF(2) encode + decompress round trip.
  AtpgOptions opts;
  opts.random_rounds = 0;  // deterministic flow only
  EdtConfig edt;
  edt.channels = 2;
  edt.ring_length = 64;
  SessionConfig cfg;
  cfg.design(gen::generate_soc(prm))
      .scan({.num_chains = 8})
      .scheme(scheme_cpf_basic(prm.domains))
      .atpg(opts)
      .compress(edt)
      .on_chip_clocking(true);

  const SessionResult r = Session(std::move(cfg)).run();

  std::cout << "pattern set: " << r.atpg.summary() << "\n";
  std::cout << "care-bit density of cubes: "
            << r.atpg.cubes.care_bit_density() * 100 << "%\n\n";

  const CompressionStats& cs = r.compression;
  std::cout << "patterns encoded : " << cs.encoded << "/" << cs.cubes_total
            << " (rest would be split/re-targeted)\n";
  std::cout << "round-trip OK    : " << cs.roundtrip_ok << "/" << cs.encoded
            << "\n";
  if (cs.compressed_bits > 0) {
    std::cout << "stimulus volume  : " << cs.uncompressed_bits << " -> "
              << cs.compressed_bits << " bits (" << cs.ratio()
              << "x compression of encoded patterns)\n";
  }
  std::cout << "tester cycles    : " << r.tester_cycles << "\n";
  return cs.roundtrip_ok == cs.encoded ? 0 : 1;
}
