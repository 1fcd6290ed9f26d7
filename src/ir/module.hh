/**
 * @file
 * The PMIR translation unit: owns functions and uniqued constants.
 */

#ifndef HIPPO_IR_MODULE_HH
#define HIPPO_IR_MODULE_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/function.hh"

namespace hippo::ir
{

/** A whole PMIR program. */
class Module
{
  public:
    explicit Module(std::string name = "module")
        : name_(std::move(name))
    {}

    const std::string &name() const { return name_; }

    /** Create a new function; the name must be unique in the module. */
    Function *addFunction(std::string name, Type return_type);

    /** Find a function by name; null when absent. */
    Function *findFunction(const std::string &name) const;

    const std::vector<std::unique_ptr<Function>> &functions() const
    {
        return functions_;
    }

    /** Uniqued integer constant. */
    Constant *getInt(uint64_t value);

    /** Uniqued null pointer constant. */
    Constant *getNullPtr();

    /** Total instruction count across all functions. */
    size_t instrCount() const;

  private:
    std::string name_;
    std::vector<std::unique_ptr<Function>> functions_;
    std::map<std::string, Function *> byName_;
    std::map<std::pair<int, uint64_t>, std::unique_ptr<Constant>>
        constants_;
};

/**
 * True when @p m contains a thread or atomic instruction
 * (thread_spawn, thread_join, atomic_*). The Vm then tracks
 * per-thread PM lines for durability races, and the crash explorer
 * explores the schedule space instead of a single schedule.
 */
bool moduleIsThreaded(const Module &m);

} // namespace hippo::ir

#endif // HIPPO_IR_MODULE_HH
