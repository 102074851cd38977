/**
 * @file
 * Unit tests for the per-chip operation scheduler and the channel
 * occupancy model.
 */

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/nand/chip.h"
#include "src/sim/event_queue.h"
#include "src/ssd/channel.h"
#include "src/ssd/chip_unit.h"

namespace cubessd::ssd {
namespace {

using NandOpCallback = std::function<void(const NandOpResult &)>;

/** Adapts the listener interface back to per-op closures for tests. */
struct CallbackListener final : NandOpListener
{
    NandOpCallback fn;

    void
    onNandOpComplete(const NandOp &, const NandOpResult &result) override
    {
        if (fn)
            fn(result);
    }
};

class ChipUnitTest : public ::testing::Test
{
  protected:
    ChipUnitTest()
    {
        nand::NandChipConfig config;
        config.geometry.blocksPerChip = 4;
        unit_ = std::make_unique<ChipUnit>(config);
        unit_->wire(channel_, queue_);
        chip_ = &unit_->chip();
    }

    NandOpListener *
    listen(NandOpCallback cb)
    {
        listeners_.push_back(std::make_unique<CallbackListener>());
        listeners_.back()->fn = std::move(cb);
        return listeners_.back().get();
    }

    /** Per-WL token storage outliving the op (NandOp borrows it). */
    const std::uint64_t *
    wlTokens(const nand::NandGeometry &geom)
    {
        tokenStorage_.emplace_back(geom.pagesPerWl, 1);
        return tokenStorage_.back().data();
    }

    NandOp
    eraseOp(std::uint32_t block, NandOpCallback cb)
    {
        NandOp op;
        op.kind = NandOp::Kind::Erase;
        op.block = block;
        if (cb)
            op.listener = listen(std::move(cb));
        return op;
    }

    NandOp
    programOp(const nand::WlAddr &wl, NandOpCallback cb)
    {
        NandOp op;
        op.kind = NandOp::Kind::Program;
        op.wl = wl;
        op.tokens = wlTokens(chip_->geometry());
        op.tokenCount = chip_->geometry().pagesPerWl;
        if (cb)
            op.listener = listen(std::move(cb));
        return op;
    }

    NandOp
    readOp(const nand::PageAddr &page, NandOpCallback cb,
           bool highPriority = false)
    {
        NandOp op;
        op.kind = NandOp::Kind::Read;
        op.page = page;
        op.highPriority = highPriority;
        if (cb)
            op.listener = listen(std::move(cb));
        return op;
    }

    sim::EventQueue queue_;
    Channel channel_;
    std::unique_ptr<ChipUnit> unit_;
    nand::NandChip *chip_ = nullptr;  ///< the unit's own chip
    std::deque<std::unique_ptr<CallbackListener>> listeners_;
    std::deque<std::vector<std::uint64_t>> tokenStorage_;
};

TEST(Channel, ReservationsSerialize)
{
    Channel ch;
    EXPECT_EQ(ch.reserve(0, 10), 0u);
    EXPECT_EQ(ch.reserve(0, 10), 10u);   // bus busy: pushed back
    EXPECT_EQ(ch.reserve(50, 10), 50u);  // idle gap respected
    EXPECT_EQ(ch.busyTime(), 30u);
    EXPECT_EQ(ch.freeAt(), 60u);
}

TEST_F(ChipUnitTest, OpsExecuteInFifoOrder)
{
    std::vector<int> order;
    unit_->enqueue(eraseOp(0, [&](const NandOpResult &) {
        order.push_back(0);
    }));
    unit_->enqueue(programOp({0, 0, 0}, [&](const NandOpResult &) {
        order.push_back(1);
    }));
    unit_->enqueue(readOp({0, 0, 0, 0}, [&](const NandOpResult &) {
        order.push_back(2);
    }));
    queue_.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST_F(ChipUnitTest, HighPriorityJumpsQueue)
{
    std::vector<int> order;
    // Pre-program a page to read, synchronously via ops.
    unit_->enqueue(eraseOp(0, nullptr));
    unit_->enqueue(programOp({0, 0, 0}, nullptr));
    queue_.run();

    // Busy op + two queued ops; the high-priority read runs first
    // among the queued ones.
    unit_->enqueue(eraseOp(1, [&](const NandOpResult &) {
        order.push_back(0);
    }));
    unit_->enqueue(programOp({0, 0, 1}, [&](const NandOpResult &) {
        order.push_back(1);
    }));
    unit_->enqueue(readOp({0, 0, 0, 0},
                          [&](const NandOpResult &) {
                              order.push_back(2);
                          },
                          /*highPriority=*/true));
    queue_.run();
    EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST_F(ChipUnitTest, TimesAreConsistent)
{
    NandOpResult eraseResult, programResult;
    unit_->enqueue(eraseOp(0, [&](const NandOpResult &r) {
        eraseResult = r;
    }));
    unit_->enqueue(programOp({0, 0, 0}, [&](const NandOpResult &r) {
        programResult = r;
    }));
    queue_.run();
    EXPECT_EQ(eraseResult.start, 0u);
    EXPECT_EQ(eraseResult.end, chip_->timing().tErase);
    // The program starts when the erase ends and lasts transfer+tPROG.
    EXPECT_EQ(programResult.start, eraseResult.end);
    const SimTime tx = chip_->timing().busTransferTime(
        static_cast<std::uint64_t>(chip_->geometry().pageSizeBytes) *
        chip_->geometry().pagesPerWl);
    EXPECT_EQ(programResult.end,
              programResult.start + tx + programResult.program.tProg);
}

TEST_F(ChipUnitTest, ReadIncludesBusTransfer)
{
    unit_->enqueue(eraseOp(0, nullptr));
    unit_->enqueue(programOp({0, 0, 0}, nullptr));
    NandOpResult readResult;
    unit_->enqueue(readOp({0, 0, 0, 0}, [&](const NandOpResult &r) {
        readResult = r;
    }));
    queue_.run();
    const SimTime tx =
        chip_->timing().busTransferTime(chip_->geometry().pageSizeBytes);
    EXPECT_EQ(readResult.end,
              readResult.start + readResult.read.tRead + tx);
}

TEST_F(ChipUnitTest, SharedChannelSerializesTransfers)
{
    // Two chips on one channel: their read transfers may not overlap.
    nand::NandChipConfig config;
    config.geometry.blocksPerChip = 4;
    config.seed = 2;
    ChipUnit unit2(config);
    unit2.wire(channel_, queue_);
    const nand::NandChip &chip2 = unit2.chip();

    unit_->enqueue(eraseOp(0, nullptr));
    unit_->enqueue(programOp({0, 0, 0}, nullptr));
    NandOp e2;
    e2.kind = NandOp::Kind::Erase;
    e2.block = 0;
    unit2.enqueue(e2);
    NandOp p2;
    p2.kind = NandOp::Kind::Program;
    p2.wl = {0, 0, 0};
    p2.tokens = wlTokens(chip2.geometry());
    p2.tokenCount = chip2.geometry().pagesPerWl;
    unit2.enqueue(p2);
    queue_.run();

    const SimTime busBefore = channel_.busyTime();
    NandOpResult r1, r2;
    unit_->enqueue(readOp({0, 0, 0, 0}, [&](const NandOpResult &r) {
        r1 = r;
    }));
    NandOp read2;
    read2.kind = NandOp::Kind::Read;
    read2.page = {0, 0, 0, 0};
    read2.listener = listen([&](const NandOpResult &r) { r2 = r; });
    unit2.enqueue(read2);
    queue_.run();

    const SimTime tx =
        chip_->timing().busTransferTime(chip_->geometry().pageSizeBytes);
    EXPECT_EQ(channel_.busyTime() - busBefore, 2 * tx);
    // Both reads completed, at distinct transfer slots.
    EXPECT_NE(r1.end, r2.end);
}

TEST_F(ChipUnitTest, IdleReflectsQueueState)
{
    EXPECT_TRUE(unit_->idle());
    unit_->enqueue(eraseOp(0, nullptr));
    EXPECT_FALSE(unit_->idle());
    queue_.run();
    EXPECT_TRUE(unit_->idle());
}

TEST_F(ChipUnitTest, OpEnqueuedFromCompletionRunsAfterWaitingOps)
{
    // Inside a completion callback the die is idle while older ops
    // still wait: an op enqueued there must queue behind them, not
    // start in place.
    std::vector<int> order;
    unit_->enqueue(eraseOp(0, [&](const NandOpResult &) {
        order.push_back(0);
        EXPECT_EQ(unit_->queueDepth(), 2u);
        unit_->enqueue(eraseOp(3, [&](const NandOpResult &) {
            order.push_back(3);
        }));
    }));
    unit_->enqueue(eraseOp(1, [&](const NandOpResult &) {
        order.push_back(1);
    }));
    unit_->enqueue(eraseOp(2, [&](const NandOpResult &) {
        order.push_back(2);
    }));
    queue_.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST_F(ChipUnitTest, EraseInAReadsResultSlotReportsItsOwnTimes)
{
    // Ops n and n + 2 share one result record: op 4, an erase, reuses
    // the record op 2, a read, filled with a bus time.
    std::vector<NandOpResult> results(5);
    auto keep = [&](int i) {
        return [&results, i](const NandOpResult &r) { results[i] = r; };
    };
    unit_->enqueue(eraseOp(0, keep(0)));
    unit_->enqueue(programOp({0, 0, 0}, keep(1)));
    unit_->enqueue(readOp({0, 0, 0, 0}, keep(2)));
    unit_->enqueue(eraseOp(1, keep(3)));
    unit_->enqueue(eraseOp(2, keep(4)));
    queue_.run();

    ASSERT_GT(results[2].busTime, 0u);
    const SimTime tErase = chip_->timing().tErase;
    EXPECT_EQ(results[4].busTime, 0u);
    EXPECT_EQ(results[4].dieTime, tErase);
    EXPECT_EQ(results[4].end - results[4].start, tErase);
    EXPECT_FALSE(results[4].eraseFailed);
}

}  // namespace
}  // namespace cubessd::ssd
