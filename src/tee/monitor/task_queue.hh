/**
 * @file
 * Secure task queue: monitor-private storage for submitted secure
 * tasks awaiting verification and launch (§IV-C, Fig 10). Living in
 * monitor memory, its contents are unreachable from the normal world;
 * the driver only ever holds opaque task ids.
 */

#ifndef SNPU_TEE_MONITOR_TASK_QUEUE_HH
#define SNPU_TEE_MONITOR_TASK_QUEUE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "npu/isa.hh"
#include "tee/aes128.hh"
#include "tee/sha256.hh"

namespace snpu
{

/** Requested NoC topology for a multi-core secure task. */
struct NocTopology
{
    std::uint32_t cols = 1;
    std::uint32_t rows = 1;

    std::uint32_t count() const { return cols * rows; }
};

/** Lifecycle of a secure task. */
enum class SecureTaskState : std::uint8_t
{
    submitted,
    verified,
    loaded,
    completed,
    rejected,
};

/**
 * A secure ML task as submitted by the (untrusted) driver on behalf
 * of a user. The user's expectations — code measurement, model MAC,
 * topology — are provisioned out of band (sealed to the monitor);
 * everything the driver supplies is treated as hostile.
 *
 * The program and ciphertext are immutable shared handles: a driver
 * that submits the same compiled task many times queues references,
 * not megabyte copies. The monitor still measures and authenticates
 * what the handles point at when it launches the task.
 */
struct SecureTask
{
    std::uint64_t id = 0;
    /** Program to run on each assigned core (null: none submitted,
     *  rejected at launch). */
    std::shared_ptr<const NpuProgram> program;
    /** User-expected measurement of the program code. */
    Digest expected_measurement{};
    /** Encrypted model weights + HMAC tag (key sealed to monitor);
     *  null when the task carries no model. */
    std::shared_ptr<const std::vector<std::uint8_t>> encrypted_model;
    Digest model_mac{};
    AesBlock model_iv{};
    /** Requested NoC topology. */
    NocTopology topology;
    /** Core ids proposed by the untrusted scheduler. */
    std::vector<std::uint32_t> proposed_cores;

    SecureTaskState state = SecureTaskState::submitted;
    /** Populated by the trusted allocator at launch. */
    Addr model_paddr = 0;
    std::uint32_t spad_rows_reserved = 0;

    /** Ciphertext size in bytes (0 without a model). */
    std::size_t modelBytes() const
    {
        return encrypted_model ? encrypted_model->size() : 0;
    }
};

/** FIFO of secure tasks with bounded capacity. */
class SecureTaskQueue
{
  public:
    explicit SecureTaskQueue(std::size_t capacity = 16);

    /** Enqueue; assigns and returns the task id (0 on overflow). */
    std::uint64_t submit(SecureTask task);

    /** Peek the oldest task not yet completed/rejected. */
    SecureTask *front();

    /** Find by id. */
    SecureTask *find(std::uint64_t id);

    /** Drop completed/rejected tasks from the head. */
    void retire();

    std::size_t size() const { return queue.size(); }
    std::size_t capacity() const { return cap; }

  private:
    std::size_t cap;
    std::uint64_t next_id = 1;
    std::deque<SecureTask> queue;
};

} // namespace snpu

#endif // SNPU_TEE_MONITOR_TASK_QUEUE_HH
