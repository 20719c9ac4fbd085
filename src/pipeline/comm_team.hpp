// olc::Team over a vmpi communicator: every rank of the run is a member.
// Built on Comm's internal collectives, so a split assembly adds no
// user-channel tags or protocol rows, and injected faults (which key on
// user sends) never land inside it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "olc/assembler.hpp"
#include "vmpi/runtime.hpp"

namespace pgasm::pipeline {

class CommTeam final : public olc::Team {
 public:
  explicit CommTeam(vmpi::Comm& comm) : comm_(comm) {}

  int rank() const override { return comm_.rank(); }
  int size() const override { return comm_.size(); }

  void broadcast(std::vector<std::uint8_t>& bytes, int root) override {
    comm_.bcast_vector(bytes, root);
  }

  std::vector<std::vector<std::uint8_t>> gather(
      const std::vector<std::uint8_t>& bytes, int root) override {
    return comm_.gatherv(bytes, root);
  }

  void allreduce_sum(std::vector<std::uint32_t>& values) override {
    values = comm_.allreduce_vector(
        std::move(values),
        [](std::uint32_t a, std::uint32_t b) -> std::uint32_t { return a + b; });
  }

 private:
  vmpi::Comm& comm_;
};

}  // namespace pgasm::pipeline
