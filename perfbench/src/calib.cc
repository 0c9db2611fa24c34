#include "calib.hh"

#include <chrono>
#include <thread>
#include <vector>

#include "stats.hh"

namespace perfbench
{

namespace
{

constexpr int kInputs = 64;
constexpr int kGates = 2048;
constexpr int kWords = 8;     ///< words per line (512 lanes)
constexpr int kSweeps = 1200; ///< sweeps per unit of work

enum Op : std::uint8_t
{
    And,
    Or,
    Xor,
    Nand,
    Nor,
    Xnor,
};

struct Network
{
    std::vector<std::uint8_t> op;
    std::vector<std::uint32_t> a, b; ///< fanin lines (inputs first)
};

const Network &
network()
{
    static const Network net = [] {
        Network n;
        std::uint64_t s = 0x5ca1ca1b;
        for (int g = 0; g < kGates; ++g) {
            const std::uint32_t lines =
                static_cast<std::uint32_t>(kInputs + g);
            s = mix64(s);
            n.op.push_back(static_cast<std::uint8_t>(s % 6));
            // Mostly-local fanin keeps the depth realistic.
            const std::uint32_t span = lines < 96 ? lines : 96;
            n.a.push_back(lines - 1 - static_cast<std::uint32_t>((s >> 8) % span));
            n.b.push_back(static_cast<std::uint32_t>((s >> 32) % lines));
        }
        return n;
    }();
    return net;
}

std::uint64_t
runUnit()
{
    const Network &net = network();
    std::vector<std::uint64_t> line(
        static_cast<std::size_t>(kInputs + kGates) * kWords);
    std::uint64_t fold = 0;
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
        for (std::size_t i = 0; i < static_cast<std::size_t>(kInputs) * kWords;
             ++i)
            line[i] = mix64(static_cast<std::uint64_t>(sweep) * 4099 + i);
        for (int g = 0; g < kGates; ++g) {
            const std::uint64_t *x = &line[net.a[g] * std::size_t{kWords}];
            const std::uint64_t *y = &line[net.b[g] * std::size_t{kWords}];
            std::uint64_t *z =
                &line[(static_cast<std::size_t>(kInputs) + g) * kWords];
            switch (net.op[g]) {
              case And:  for (int w = 0; w < kWords; ++w) z[w] = x[w] & y[w]; break;
              case Or:   for (int w = 0; w < kWords; ++w) z[w] = x[w] | y[w]; break;
              case Xor:  for (int w = 0; w < kWords; ++w) z[w] = x[w] ^ y[w]; break;
              case Nand: for (int w = 0; w < kWords; ++w) z[w] = ~(x[w] & y[w]); break;
              case Nor:  for (int w = 0; w < kWords; ++w) z[w] = ~(x[w] | y[w]); break;
              default:   for (int w = 0; w < kWords; ++w) z[w] = ~(x[w] ^ y[w]); break;
            }
        }
        for (int w = 0; w < kWords; ++w)
            fold = mix64(fold ^ line[line.size() - 1 - static_cast<std::size_t>(w)]);
    }
    return fold;
}

} // namespace

Calibration
calibrate(int reps, int threads)
{
    std::vector<double> secs;
    Calibration c;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<std::thread> others;
        for (int t = 1; t < threads; ++t)
            others.emplace_back([] { runUnit(); });
        c.digest = runUnit();
        for (std::thread &t : others)
            t.join();
        secs.push_back(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    }
    c.seconds = median(secs);
    c.gateWordsPerSecond = static_cast<double>(kGates) * kWords * kSweeps *
                           threads / c.seconds;
    return c;
}

} // namespace perfbench
