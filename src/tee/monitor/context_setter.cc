#include "tee/monitor/context_setter.hh"

#include "sim/logging.hh"

namespace snpu
{

ContextSetter::ContextSetter(NpuDevice &device,
                             std::vector<NpuGuarder *> guarders)
    : device(device), guarders(std::move(guarders))
{
    if (this->guarders.size() != device.tiles())
        fatal("context setter needs one guarder per tile");
}

NpuGuarder &
ContextSetter::guarder(std::uint32_t core)
{
    if (core >= guarders.size() || !guarders[core])
        panic("guarder not registered for core ", core);
    return *guarders[core];
}

bool
ContextSetter::setSecureContext(const SecureContext &ctx,
                                std::uint32_t core,
                                const std::vector<TaskWindow> &windows)
{
    const bool from_secure = ctx.canConfigureSecure();
    if (!from_secure)
        return false;
    if (core >= guarders.size())
        return false;

    NpuGuarder &guard = guarder(core);
    if (!guard.clearAll(from_secure))
        return false;
    if (windows.size() > NpuGuarder::checking_registers ||
        windows.size() > NpuGuarder::translation_registers) {
        return false;
    }

    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(windows.size()); ++i) {
        const TaskWindow &w = windows[i];
        if (!guard.setCheckingRegister(
                i, AddrRange{w.pa_base, w.size}, w.perm, World::secure,
                from_secure)) {
            return false;
        }
        if (!guard.setTranslationRegister(i, w.va_base, w.pa_base,
                                          w.size, from_secure)) {
            return false;
        }
    }
    return device.setCoreWorld(core, World::secure, from_secure);
}

bool
ContextSetter::clearContext(const SecureContext &ctx, std::uint32_t core)
{
    const bool from_secure = ctx.canConfigureSecure();
    if (!from_secure)
        return false;
    if (core >= guarders.size())
        return false;
    if (!guarder(core).clearAll(from_secure))
        return false;
    return device.setCoreWorld(core, World::normal, from_secure);
}

} // namespace snpu
